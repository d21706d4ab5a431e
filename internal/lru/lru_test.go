package lru

import (
	"reflect"
	"testing"
)

func keys[V any](c *Cache[string, V]) []string {
	var ks []string
	c.Each(func(k string, _ V) { ks = append(ks, k) })
	return ks
}

// TestCountBounded: the limit is an entry count; Get and a refreshing Put
// both renew recency, and Each runs least to most recently used.
func TestCountBounded(t *testing.T) {
	var evicted []string
	c := New[string, int](3, func(k string, _ int) { evicted = append(evicted, k) })
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, i)
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("b", 10)
	c.Put("d", 3) // evicts c, the least recently used
	if got, want := keys(c), []string{"a", "b", "d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	if !reflect.DeepEqual(evicted, []string{"c"}) || c.Len() != 3 {
		t.Fatalf("evicted %v, len %d", evicted, c.Len())
	}
	if v, _ := c.Get("b"); v != 10 {
		t.Fatalf("b = %d after refresh, want 10", v)
	}
}

// TestZeroLimitCachesNothing pins the "limit of 0 or less" rule.
func TestZeroLimitCachesNothing(t *testing.T) {
	c := New[string, int](0, nil)
	c.Put("x", 1)
	if _, ok := c.Get("x"); ok || c.Len() != 0 {
		t.Fatal("a zero-limit cache kept an entry")
	}
}
