package core

import (
	"fmt"

	"pase/internal/cost"
	"pase/internal/seq"
)

// Snapshot retains a completed solve's full DP state — every position's
// quotient table — so a near-duplicate later request can re-fill only the
// tables its delta touches (Resolve). tbl is indexed by position; the
// positions of one table class (see tableClasses) hold the same table, so the
// retained memory is one quotient per class: Π classes entries each, not the
// solve's TotalEntries. It is NOT counted against Options.MaxTableEntries,
// which keeps ErrOOM behavior identical to a non-retaining solve. Retained
// tables are immutable once published: a Resolve's new snapshot aliases the
// clean tables of the old one, so snapshots are cheap to chain and safe to
// share.
type Snapshot struct {
	sq      *seq.Sequence
	subsets [][][]int
	tbl     []*qtable
}

// Seq returns the vertex ordering the snapshot's solve ran over.
func (s *Snapshot) Seq() *seq.Sequence { return s.sq }

// posDirty propagates a per-vertex dirty set to DP positions: position i
// must be re-filled when its own vertex changed, any member of D(i) changed
// (the fill reads TL/TX tables and strides keyed by those vertices), or any
// connected subset it folds was itself re-filled (its input table changed).
// The forward pass is well-founded because a position's subset children all
// precede it in the ordering.
func (s *Snapshot) posDirty(dirtyV []bool) []bool {
	sq := s.sq
	n := len(sq.Order)
	dirty := make([]bool, n)
	for i := 0; i < n; i++ {
		d := dirtyV[sq.Order[i]]
		if !d {
			for _, dep := range sq.Dep[i] {
				if dirtyV[dep] {
					d = true
					break
				}
			}
		}
		if !d {
			for _, sub := range s.subsets[i] {
				if dirty[sq.Pos[sub[len(sub)-1]]] {
					d = true
					break
				}
			}
		}
		dirty[i] = d
	}
	return dirty
}

// EstimateDelta sizes a prospective Resolve against model m: the table
// entries the dirty closure of dirtyV would re-fill versus the total — a cheap
// O(Σ|D(i)|) computation, no tables touched. Both sides count positions, not
// table classes: a dirty position that shares its table is re-filled once, or
// not at all, so dirty over-states the work, by the same convention total
// does.
func (s *Snapshot) EstimateDelta(m *cost.Model, dirtyV []bool) (dirty, total int64) {
	pd := s.posDirty(dirtyV)
	for i := range s.sq.Order {
		sz := int64(1)
		for _, d := range s.sq.Dep[i] {
			sz *= int64(m.K(d))
		}
		total += sz
		if pd[i] {
			dirty += sz
		}
	}
	return dirty, total
}

// table is representative position i's table: outside a Resolve's dirty
// closure the snapshot's, verbatim — a fill would reproduce its bytes from
// unchanged inputs — and a fresh fill everywhere else.
func (e *exactSolve) table(i int) (*qtable, error) {
	if e.posDirty == nil || e.posDirty[i] {
		if e.posDirty != nil {
			e.st.DirtyPositions++
		}
		return e.fill(i)
	}
	old, dep := e.snap.tbl[i], e.sq.Dep[i]
	sameShape := len(old.dims) == len(dep)
	for k := 0; sameShape && k < len(dep); k++ {
		sameShape = old.k(k) == e.m.K(dep[k])
	}
	if !sameShape {
		return nil, fmt.Errorf("core: resolve: clean position %d table is not of the shape the model implies (unsound dirty set?)", i)
	}
	e.st.ReusedEntries += e.tblSizes[i]
	return old, nil
}
