package cost

import (
	"slices"

	"pase/internal/canon"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
)

// EdgeClasses is an edge grouping: per edge its class, per class its
// representative edge and its fingerprint.
type EdgeClasses struct {
	Class, Reps []int
	FPs         []canon.Fingerprint
}

// InternEdgeClasses returns buildInternPlan's edge grouping of g and the
// grouping keyed the direct way: every edge by the bytes of its own two
// sides.
func InternEdgeClasses(g *graph.Graph, spec machine.Spec, pol itspace.EnumPolicy) (plan, perEdge EdgeClasses) {
	m := &Model{G: g, Spec: spec, Policy: pol, edges: g.Edges()}
	for _, e := range m.edges {
		m.inSlot = append(m.inSlot, g.InputIndex(e[0], e[1]))
	}
	p := m.buildInternPlan()
	w := canon.NewRecorder()
	head := m.classPrefix(w, "cost.edge-class/v2")
	byKey := map[[2]string]int{}
	for e, uv := range m.edges {
		nu, nv := g.Nodes[uv[0]], g.Nodes[uv[1]]
		w.Truncate(head)
		nu.Space.CanonicalEncode(w)
		nu.Output.CanonicalEncode(w)
		mid := len(w.Bytes())
		nv.Space.CanonicalEncode(w)
		nv.Inputs[m.inSlot[e]].CanonicalEncode(w)
		k := [2]string{string(w.Bytes()[head:mid]), string(w.Bytes()[mid:])}
		ci, ok := byKey[k]
		if !ok {
			ci = len(perEdge.Reps)
			byKey[k] = ci
			perEdge.Reps = append(perEdge.Reps, e)
			perEdge.FPs = append(perEdge.FPs, w.Sum())
		}
		perEdge.Class = append(perEdge.Class, ci)
	}
	return EdgeClasses{p.eClass, p.eReps, p.eFPs}, perEdge
}

// EliminationBlocks gathers vertex v's blocks as an elimination check reads
// them when alive holds every vertex's survivors: per incident edge, in
// incidence order, the edge, the block's cells (one row per survivor of v)
// and its columns (survivors of the other end).
func EliminationBlocks(m *Model, v int, alive [][]int32) (ies []IncEdge, cells [][]float64, cols [][]int32) {
	d := newDEE(m, nil)
	copy(d.alive, alive)
	d.gather(v, alive[v])
	ies = slices.Clone(m.inc[v])
	for _, b := range d.views {
		cells = append(cells, slices.Clone(b.cells))
		cols = append(cols, slices.Clone(b.cols))
	}
	return ies, cells, cols
}

// TransposesBuilt counts m's distinct TX tables whose transpose has been
// built.
func TransposesBuilt(m *Model) int {
	return viewsBuilt(m, func(t *edgeTables) bool { return t.tabT != nil })
}

// DenseLayoutsBuilt counts m's distinct quotient-stored TX tables whose
// dense layout has been built.
func DenseLayoutsBuilt(m *Model) int {
	return viewsBuilt(m, func(t *edgeTables) bool { return t.tab != nil })
}

func viewsBuilt(m *Model, built func(*edgeTables) bool) int {
	seen := map[*edgeTables]bool{}
	n := 0
	for _, t := range m.txc {
		if !seen[t] {
			seen[t] = true
			if built(t) {
				n++
			}
		}
	}
	return n
}
