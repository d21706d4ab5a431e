package core

import (
	"context"

	"pase/internal/canon"
	"pase/internal/cost"
	"pase/internal/seq"
)

// Snapshot retains a completed solve's full DP state — every position's
// quotient table and the key it was filled under (see tableClasses) — so a
// later solve can keep every table whose key it holds and fill only the rest
// (Resolve). tbl is indexed by position; the positions of one table class
// hold the same table, so the retained memory is one quotient per class: Π
// classes entries each, not the solve's TotalEntries. It is NOT counted
// against Options.MaxTableEntries, which keeps ErrOOM behavior identical to a
// non-retaining solve. Retained tables are immutable once published: a
// Resolve's new snapshot aliases the kept tables of the old one, so
// snapshots are cheap to chain and safe to share. keys is nil for a model
// without class fingerprints, whose keys name no content.
type Snapshot struct {
	sq      *seq.Sequence
	subsets [][][]int
	keys    []canon.Fingerprint
	tbl     []*qtable
}

// Seq returns the vertex ordering the snapshot's solve ran over.
func (s *Snapshot) Seq() *seq.Sequence { return s.sq }

// held maps every key the snapshot holds to its table: the tables a solve
// over m may keep. Nothing when m or the snapshot's model has no class
// fingerprints.
func (s *Snapshot) held(m *cost.Model) map[canon.Fingerprint]*qtable {
	if !named(m) {
		return nil
	}
	held := make(map[canon.Fingerprint]*qtable, len(s.keys))
	for i, k := range s.keys {
		held[k] = s.tbl[i]
	}
	return held
}

// EstimateDelta sizes a prospective Resolve against model m: the entries of
// the tables whose keys the snapshot does not hold, which Resolve would fill,
// versus the entries of every distinct table of the solve (its TotalEntries).
// It runs the table classes alone, no table data; dirtyV is ignored. An
// ordering m cannot be solved over counts every table as missing.
func (s *Snapshot) EstimateDelta(m *cost.Model, dirtyV []bool) (dirty, total int64) {
	rep, keys, err := newFrame(context.Background(), m, s.sq, s.subsets, Options{}, "").tableClasses()
	held := s.held(m)
	for i := range s.sq.Order {
		if err == nil && rep[i] != i {
			continue
		}
		sz := int64(1)
		for _, d := range s.sq.Dep[i] {
			sz *= int64(m.K(d))
		}
		total += sz
		if err != nil || held[keys[i]] == nil {
			dirty += sz
		}
	}
	return dirty, total
}

// table is representative position i's table: in a Resolve, the snapshot's
// table under the same key, verbatim — a fill would reproduce its bytes from
// the same inputs — and a fresh fill everywhere else.
func (e *exactSolve) table(i int) (*qtable, error) {
	if old := e.held[e.keys[i]]; old != nil {
		e.st.ReusedEntries += e.tblSizes[i]
		return old, nil
	}
	if e.snap != nil {
		e.st.DirtyPositions++
	}
	return e.fill(i)
}
