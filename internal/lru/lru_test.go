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

// TestCountBounded: without a weigh function the limit is an entry count;
// Get and a refreshing Put both renew recency, and Each runs least to most
// recently used.
func TestCountBounded(t *testing.T) {
	var evicted []string
	c := New[string, int](3, nil, func(k string, _ int) { evicted = append(evicted, k) })
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
	if !reflect.DeepEqual(evicted, []string{"c"}) || c.Len() != 3 || c.Weight() != 3 {
		t.Fatalf("evicted %v, len %d, weight %d", evicted, c.Len(), c.Weight())
	}
	if v, _ := c.Get("b"); v != 10 {
		t.Fatalf("b = %d after refresh, want 10", v)
	}
}

// TestWeightBounded: with a weigh function the limit bounds the summed
// weight, one Put may evict several entries, a refresh re-weighs, and the
// entry just put is never its own victim.
func TestWeightBounded(t *testing.T) {
	var evicted []string
	c := New[string, int64](10, func(v int64) int64 { return v }, func(k string, _ int64) { evicted = append(evicted, k) })
	c.Put("a", 3)
	c.Put("b", 3)
	c.Put("c", 3)
	c.Put("d", 6) // 15 > 10: a and b go
	if got, want := keys(c), []string{"c", "d"}; !reflect.DeepEqual(got, want) || c.Weight() != 9 {
		t.Fatalf("order %v weight %d, want %v weight 9", got, c.Weight(), want)
	}
	c.Put("c", 1) // refresh lighter: 7
	if c.Weight() != 7 || len(evicted) != 2 {
		t.Fatalf("weight %d evicted %v after a lighter refresh", c.Weight(), evicted)
	}
	c.Put("huge", 50) // heavier than the limit: everything else goes, it stays
	if got := keys(c); !reflect.DeepEqual(got, []string{"huge"}) {
		t.Fatalf("after an oversized Put: %v", got)
	}
	c.Put("e", 1) // the next Put displaces it
	if got := keys(c); !reflect.DeepEqual(got, []string{"e"}) || c.Weight() != 1 {
		t.Fatalf("after the next Put: %v weight %d", got, c.Weight())
	}
}

// TestZeroLimitCachesNothing pins the "limit of 0 or less" rule.
func TestZeroLimitCachesNothing(t *testing.T) {
	c := New[string, int](0, nil, nil)
	c.Put("x", 1)
	if _, ok := c.Get("x"); ok || c.Len() != 0 {
		t.Fatal("a zero-limit cache kept an entry")
	}
}
