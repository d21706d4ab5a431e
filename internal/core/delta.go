package core

import (
	"context"

	"pase/internal/canon"
	"pase/internal/cost"
	"pase/internal/seq"
)

// Snapshot retains a completed solve's DP tables, each under the key it was
// filled under (see tableClasses), so that a later solve can keep every table
// whose key it holds and fill only the rest (SolveKeep). tbl and keys are
// indexed by the solve's positions; the positions of one table class hold the
// same table, so the retained memory is one quotient per class: Π classes
// entries each, not the solve's TotalEntries. It is NOT counted against
// Options.MaxTableEntries, which keeps ErrOOM behavior identical to a
// non-retaining solve. Retained tables are immutable once published: a
// keeping solve's snapshot aliases the kept tables of the old one, so
// snapshots are cheap to chain and safe to share. keys is nil for a model
// without class fingerprints, whose keys name no content.
type Snapshot struct {
	keys []canon.Fingerprint
	tbl  []*qtable
}

// held maps every key the snapshot holds to its table: the tables a solve
// may keep. Nothing when there is none, or when its model had no class
// fingerprints (solveExact keeps no keys then; keys by index lead with
// another canon tag, so they match none).
func (s *Snapshot) held() map[canon.Fingerprint]*qtable {
	if s == nil {
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
// versus the entries of every distinct table of that Resolve (its
// TotalEntries; an edit that splits a table class makes it larger than the
// snapshot's). It runs the table classes over m's GENERATESEQ ordering alone,
// no table data; dirtyV is ignored. An ordering m cannot be solved over
// counts every table as missing. Only the benchmark harness calls it.
func (s *Snapshot) EstimateDelta(m *cost.Model, dirtyV []bool) (dirty, total int64) {
	sq := seq.Generate(m.G)
	rep, keys, err := newFrame(context.Background(), m, sq, seq.Children(m.G, sq), Options{}, "").tableClasses()
	held := s.held()
	for i := range sq.Order {
		if err == nil && rep[i] != i {
			continue
		}
		sz := int64(1)
		for _, d := range sq.Dep[i] {
			sz *= int64(m.K(d))
		}
		total += sz
		if err != nil || held[keys[i]] == nil {
			dirty += sz
		}
	}
	return dirty, total
}

// table is representative position i's table: in a keeping solve, the
// snapshot's table under the same key, verbatim — a fill would reproduce its
// bytes from the same inputs — and a fresh fill everywhere else.
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
