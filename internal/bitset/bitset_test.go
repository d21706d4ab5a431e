package bitset

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	for _, v := range []int{0, 63, 64, 65, 129} {
		s.Add(v)
		if !s.Has(v) {
			t.Fatalf("Has(%d) false after Add", v)
		}
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d, want 5", s.Count())
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 4 {
		t.Fatalf("Remove(64) failed: %v", s.Members())
	}
	want := []int{0, 63, 65, 129}
	got := s.Members()
	if len(got) != len(want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
}

// Union and removal must agree with map[int]bool semantics on random data.
func TestAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 200
	for trial := 0; trial < 50; trial++ {
		a, b := New(n), New(n)
		am, bm := map[int]bool{}, map[int]bool{}
		for k := 0; k < 80; k++ {
			v := rng.Intn(n)
			a.Add(v)
			am[v] = true
			w := rng.Intn(n)
			b.Add(w)
			bm[w] = true
		}
		if trial%2 == 0 {
			a.UnionWith(b)
			for v := range bm {
				am[v] = true
			}
		} else {
			for v := range bm {
				a.Remove(v)
				delete(am, v)
			}
		}
		if a.Count() != len(am) {
			t.Fatalf("trial %d: count %d != oracle %d", trial, a.Count(), len(am))
		}
		a.ForEach(func(v int) {
			if !am[v] {
				t.Fatalf("trial %d: extra member %d", trial, v)
			}
		})
	}
}
