// Package seq implements the vertex-ordering machinery of PaSE Section III:
// the GENERATESEQ algorithm (paper Fig. 3) that orders vertices so the
// dynamic program's dependent sets stay small, the breadth-first baseline
// ordering of Section III-A, and the dependent sets and connected subsets of
// an arbitrary ordering that the solver reads.
package seq

import (
	"cmp"
	"slices"

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
// D(i) = N(X(i)) ∩ V>i. X(i) is v(i) joined with its children's X (see
// Children), so the union of its members' neighbourhoods is v(i)'s joined with
// theirs, gathered in one pass over the ordering.
func FromOrder(g *graph.Graph, order []int) *Sequence {
	s := &Sequence{Order: slices.Clone(order), Pos: make([]int, g.Len()), Dep: make([][]int, g.Len())}
	for i, v := range order {
		s.Pos[v] = i
	}
	nx := g.AdjacencyBits() // nx[v(i)] grows into ∪ N(u), u ∈ X(i), at position i
	var members []int
	for i, children := range Children(g, s) {
		for _, j := range children {
			nx[order[i]].UnionWith(nx[order[j]])
		}
		members = nx[order[i]].AppendTo(members[:0])
		for _, u := range members {
			if s.Pos[u] > i {
				s.Dep[i] = append(s.Dep[i], u)
			}
		}
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
	for _, dep := range s.Dep {
		slices.SortFunc(dep, func(a, b int) int { return cmp.Compare(s.Pos[a], s.Pos[b]) })
	}
}

// Children returns, for every position i of the sequence, its child
// positions in ascending order: the last position of each connected subset
// in S(i), the components of X(i) − {v(i)} (paper Section III-B definition
// c), which is where recurrence 4 reads that subset's table. Those
// components are exactly the components of the subgraph induced by V<i that
// v(i) neighbours, so one union-find pass over the ordering finds them all:
// adding v(i) joins each under i, and a component's root stays its last
// position. A position is a child once, so the lists share one backing array.
func Children(g *graph.Graph, s *Sequence) [][]int {
	n := len(s.Order)
	root := make([]int, n) // union-find parent, by position
	flat := make([]int, 0, n)
	out := make([][]int, n)
	for i, v := range s.Order {
		root[i] = i
		start := len(flat)
		for _, nb := range [2][]int{g.In(v), g.Out(v)} {
			for _, u := range nb {
				j := s.Pos[u]
				if j >= i {
					continue
				}
				for root[j] != j { // path halving
					root[j] = root[root[j]]
					j = root[j]
				}
				if j != i {
					root[j] = i
					flat = append(flat, j)
				}
			}
		}
		slices.Sort(flat[start:])
		out[i] = flat[start:len(flat):len(flat)]
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
