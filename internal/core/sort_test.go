package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// byCost and byFlat are the beam's two partial orders as slices.SortFunc
// comparators — (cost, flat, c) and (flat, cost, c) — the definitions
// sortPartials is checked against.
func byCost(p, q beamPartial) int {
	return cmp.Or(cmp.Compare(p.cost, q.cost), cmp.Compare(p.flat, q.flat), cmp.Compare(p.c, q.c))
}

func byFlat(p, q beamPartial) int {
	return cmp.Or(cmp.Compare(p.flat, q.flat), byCost(p, q))
}

// sortCases yields the lengths 0–300, each with a seeded generator; a few
// distinct values per key force ties on the leading keys at every length.
func sortCases(yield func(n int, rng *rand.Rand) bool) {
	for n := 0; n <= 300; n++ {
		if !yield(n, rand.New(rand.NewSource(int64(n)))) {
			return
		}
	}
}

// sortPartials is slices.SortFunc under byCost, or byFlat, on random partials
// whose costs and flats repeat — both keys tie often, so every level of each
// order decides somewhere — and whose (flat, c) pairs are unique, as in a
// frontier. Already sorted and reversed inputs ride along at every length.
func TestSortPartialsMatchesSortFunc(t *testing.T) {
	for n, rng := range sortCases {
		ps := make([]beamPartial, n)
		for j := range ps {
			ps[j] = beamPartial{flat: int64(j / 3), c: int32(j % 3), cost: float64(rng.Intn(1 + n/8))}
			if rng.Intn(4) == 0 {
				ps[j].cost += 0.5
			}
		}
		rng.Shuffle(n, func(a, b int) { ps[a], ps[b] = ps[b], ps[a] })
		for _, byFlatOrder := range []bool{false, true} {
			order := byCost
			if byFlatOrder {
				order = byFlat
			}
			want := slices.SortedFunc(slices.Values(ps), order)
			rev := slices.Clone(want)
			slices.Reverse(rev)
			for name, in := range map[string][]beamPartial{"random": ps, "sorted": want, "reversed": rev} {
				got := slices.Clone(in)
				sortPartials(got, make([]beamPartial, n), byFlatOrder)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d byFlat=%v %s: got %v, want %v", n, byFlatOrder, name, got, want)
				}
			}
		}
	}
}
