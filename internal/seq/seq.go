// Package seq implements the vertex-ordering machinery of PaSE Section III:
// the GENERATESEQ algorithm (paper Fig. 3) that orders vertices so the
// dynamic program's dependent sets stay small, the breadth-first baseline
// ordering of Section III-A, and the dependent sets and connected subsets of
// an arbitrary ordering that the solver reads.
package seq

import (
	"sort"

	"pase/internal/bitset"
	"pase/internal/graph"
)

// Sequence is an ordering V of the graph's vertices together with the
// dependent set D(i) of every position, as produced by GENERATESEQ (for
// which Theorem 2 guarantees the incremental sets equal the definitional
// ones) or recomputed from the definition for arbitrary orderings.
type Sequence struct {
	// Order[i] is the node ID of v(i+1) (0-based positions).
	Order []int
	// Pos[v] is the position of node v in Order.
	Pos []int
	// Dep[i] is D(i+1): the node IDs of the dependent set of the vertex at
	// position i, sorted by position.
	Dep [][]int
}

// MaxDepSize returns the paper's M: the largest dependent-set cardinality.
func (s *Sequence) MaxDepSize() int {
	m := 0
	for _, d := range s.Dep {
		if len(d) > m {
			m = len(d)
		}
	}
	return m
}

// Generate runs GENERATESEQ (paper Fig. 3): dependent sets start as the
// vertex neighbourhoods; at each step the unsequenced vertex with the
// smallest current dependent set is appended, and the sets of its dependents
// absorb its remaining dependents. Ties break on lower node ID for
// determinism. The returned dependent sets are the incrementally maintained
// v.d, which Theorem 2 proves equal to D(i).
//
// Dependent sets are word-packed bitsets, so the line 7-9 set merges are one
// union plus two bit clears per member (O(n/64) words each) instead of the
// nested map loop that dominated the Fig. 5 hot path.
func Generate(g *graph.Graph) *Sequence {
	n := g.Len()
	d := g.AdjacencyBits() // v.d starts as N(v); mutated in place below
	size := make([]int, n)
	for v := range d {
		size[v] = d[v].Count()
	}
	inSeq := make([]bool, n)
	s := &Sequence{
		Order: make([]int, 0, n),
		Pos:   make([]int, n),
		Dep:   make([][]int, 0, n),
	}
	var members []int
	for i := 0; i < n; i++ {
		// Line 5: pick the unsequenced node with minimum |u.d|.
		best, bestSize := -1, 1<<31-1
		for u := 0; u < n; u++ {
			if inSeq[u] {
				continue
			}
			if sz := size[u]; sz < bestSize {
				best, bestSize = u, sz
			}
		}
		vi := best
		inSeq[vi] = true
		s.Order = append(s.Order, vi)
		s.Pos[vi] = i

		// Lines 7-9: for all v in v(i).d, v.d ← v.d ∪ v(i).d − {v(i)}. The
		// union may introduce v into its own set (v ∈ v(i).d); clear it.
		dvi := d[vi]
		members = dvi.AppendTo(members[:0])
		for _, v := range members {
			d[v].UnionWith(dvi)
			d[v].Remove(v)
			d[v].Remove(vi)
			size[v] = d[v].Count()
		}

		s.Dep = append(s.Dep, dvi.Members())
	}
	sortDepsByPos(s)
	return s
}

// FromOrder builds a Sequence for an arbitrary vertex ordering (e.g. the
// breadth-first baseline), computing every dependent set from the definition
// D(i) = N(X(i)) ∩ V>i via bitset reachability.
func FromOrder(g *graph.Graph, order []int) *Sequence {
	n := g.Len()
	s := &Sequence{Order: append([]int(nil), order...), Pos: make([]int, n), Dep: make([][]int, n)}
	for i, v := range order {
		s.Pos[v] = i
	}
	adj := g.AdjacencyBits()
	allowed := bitset.New(n) // V≤i, grown incrementally
	x, frontier, next, nb := bitset.New(n), bitset.New(n), bitset.New(n), bitset.New(n)
	for i, v := range order {
		allowed.Add(v)
		graph.ReachableWithinBits(adj, allowed, v, x, frontier, next)
		// D(i) = N(X(i)) − X(i): a V≤i neighbour of X(i) would itself be
		// connected to v(i) within V≤i, so every member is in V>i already.
		nb.Clear()
		x.ForEach(func(u int) { nb.UnionWith(adj[u]) })
		nb.AndNotWith(x)
		s.Dep[i] = nb.Members()
	}
	sortDepsByPos(s)
	return s
}

// BFS returns the breadth-first baseline sequence of Section III-A. For it,
// X(i) = V≤i, so D(i) equals the naive DB(i) = N(V≤i) ∩ V>i.
func BFS(g *graph.Graph) *Sequence {
	return FromOrder(g, g.BFSOrder())
}

func sortDepsByPos(s *Sequence) {
	for i := range s.Dep {
		dep := s.Dep[i]
		sort.Slice(dep, func(a, b int) bool { return s.Pos[dep[a]] < s.Pos[dep[b]] })
	}
}

// ConnectedSubsetsAll computes S(i) for every position of the sequence in
// one pass over shared word-packed adjacency: the vertex sets of the
// connected components of X(i) − {v(i)} (paper Section III-B definition c),
// each sorted by position, ordered by their last position (the j of
// recurrence 4's table lookups).
func ConnectedSubsetsAll(g *graph.Graph, s *Sequence) [][][]int {
	n := g.Len()
	out := make([][][]int, n)
	adj := g.AdjacencyBits()
	allowed := bitset.New(n) // V≤i, grown incrementally
	x, frontier, next := bitset.New(n), bitset.New(n), bitset.New(n)
	comp, rem := bitset.New(n), bitset.New(n)
	for i := 0; i < n; i++ {
		vi := s.Order[i]
		allowed.Add(vi)
		graph.ReachableWithinBits(adj, allowed, vi, x, frontier, next)
		x.Remove(vi)
		// Components of the subgraph induced by X(i) − {v(i)} (all members
		// are in V<i since X(i) ⊆ V≤i). Components of rem equal components of
		// the full induced subgraph: removing one component cannot disconnect
		// another.
		rem.CopyFrom(x)
		var subsets [][]int
		for j := 0; j < i && !rem.Empty(); j++ { // deterministic scan by position
			v := s.Order[j]
			if !rem.Has(v) {
				continue
			}
			graph.ReachableWithinBits(adj, rem, v, comp, frontier, next)
			members := comp.Members()
			sort.Slice(members, func(a, b int) bool { return s.Pos[members[a]] < s.Pos[members[b]] })
			rem.AndNotWith(comp)
			subsets = append(subsets, members)
		}
		sort.Slice(subsets, func(a, b int) bool {
			return s.Pos[subsets[a][len(subsets[a])-1]] < s.Pos[subsets[b][len(subsets[b])-1]]
		})
		out[i] = subsets
	}
	return out
}

// Stats summarizes a sequence for the paper's Fig. 5 discussion.
type Stats struct {
	// MaxDep is M = max |D(i)|.
	MaxDep int
	// MaxState is max |D(i) ∪ {v(i)}|, the paper's ≤ 3 claim for
	// InceptionV3 under GENERATESEQ.
	MaxState int
	// DepHistogram[k] counts positions with |D(i)| = k.
	DepHistogram map[int]int
}

// Summarize computes ordering statistics.
func Summarize(s *Sequence) Stats {
	st := Stats{DepHistogram: map[int]int{}}
	for _, d := range s.Dep {
		st.DepHistogram[len(d)]++
		if len(d) > st.MaxDep {
			st.MaxDep = len(d)
		}
		if len(d)+1 > st.MaxState {
			st.MaxState = len(d) + 1
		}
	}
	return st
}
