package cost

import "slices"

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
