package core

import (
	"fmt"

	"pase/internal/canon"
	"pase/internal/cost"
	"pase/internal/seq"
)

// tableClasses groups the positions of the ordering into classes whose DP
// tables are equal by construction: rep[i] is the first position whose table
// is computed from the same inputs, wired the same way, as position i's
// (rep[i] == i for a representative), and keys[i] is the digest of those
// inputs. A table of recurrence (4) is a function of its vertex's TL row, the
// configuration count of every φ digit, the TX table of every later neighbour
// and the digit that addresses it, and the tables of its connected subsets
// with the map from each child's dependent set to φ digits (after the vertex
// itself), TX tables and subsets in summation order. The key spells out
// exactly that, and two positions fall into one class only when their keys
// are the same bytes (a map keyed by them; no hash decides), so the fill, its
// digit classes, its candidate counts and every bit of the table are those of
// the representative's. Each class's key is hashed once, into its digest.
//
// Inputs are named by content: a TL row by its vertex class fingerprint, a TX
// table by its edge class fingerprint and the side the vertex reads it from,
// which fixes its orientation, and a child by its own key. Equal keys thus
// mean byte-equal tables in any two models, which is what lets Resolve keep a
// snapshot's table under the same key (hash-consing). Within a model this
// groups the positions that read the same interned tables: interning and
// elimination share a table exactly when the fingerprints match. A model
// built without interning has no fingerprints; its rows and tables are named
// by vertex and edge index, so every position is its own class, and such
// keys are never compared across models (see named). The pass reads the
// model, the ordering and the subsets only, no table data, and wires them as
// the fill does (eachLaterEdge, childDigits).
func (f *frame) tableClasses() (rep []int, keys []canon.Fingerprint, err error) {
	m, sq := f.m, f.sq
	n := len(sq.Order)
	rep, keys = make([]int, n), make([]canon.Fingerprint, n)
	byName := named(m)
	w := canon.NewRecorder()
	var digits []int
	seen := make(map[string]int, n)
	for i, v := range sq.Order {
		w.Truncate(0)
		w.Label("core.table-key/v1")
		if byName {
			w.FP(m.VertexClassFP(v))
		} else {
			w.Int(v)
		}
		w.Int(m.K(v))
		w.Len(len(sq.Dep[i]))
		f.setDigits(i)
		for _, k := range f.kd {
			w.Int(k)
		}
		err = f.eachLaterEdge(i, func(ie cost.IncEdge, dg int) {
			if byName {
				w.FP(m.EdgeClassFP(ie.E))
			} else {
				w.Int(ie.E)
			}
			w.Bool(ie.VIsU)
			w.Int(dg)
		})
		w.Len(len(f.subsets[i])) // the TX sources end here
		for _, sub := range f.subsets[i] {
			j := f.child(sub)
			if err == nil {
				digits, err = f.childDigits(i, j, digits)
			}
			w.FP(keys[j]) // D(j)'s size is part of the child's own key
			w.Ints(digits)
		}
		f.resetDigits(i)
		if err != nil {
			return nil, nil, err
		}
		r, ok := seen[string(w.Bytes())]
		if !ok {
			r = i
			seen[string(w.Bytes())] = i
			keys[i] = w.Sum()
		}
		rep[i], keys[i] = r, keys[r]
	}
	return rep, keys, nil
}

// named reports whether m's tables carry class fingerprints, so that table
// keys name content and may be compared across models.
func named(m *cost.Model) bool { return m.VertexClassFP(0) != canon.Fingerprint{} }

// freePlan is the liveness plan the exact and the beam solver share:
// freeAt[i] lists the positions whose cost table is last read by position i's
// fill. After that fill the table is dead — back-substitution reads choices
// only — and is freed. With table classes (rep non-nil; the beam has none) a
// table belongs to its class and is listed under the representative: only a
// representative is filled, so only a representative reads, and a child is
// read through whichever member of its class the reader's subset names — the
// table dies after the last such fill.
func freePlan(sq *seq.Sequence, subsets [][][]int, rep []int) [][]int {
	lastReader := make([]int, len(subsets))
	for j := range lastReader {
		lastReader[j] = -1
	}
	for i, subs := range subsets {
		if rep != nil && rep[i] != i {
			continue
		}
		for _, sub := range subs {
			j := sq.Pos[sub[len(sub)-1]]
			if rep != nil {
				j = rep[j]
			}
			if i > lastReader[j] {
				lastReader[j] = i
			}
		}
	}
	freeAt := make([][]int, len(subsets))
	for j, r := range lastReader {
		if r >= 0 {
			freeAt[r] = append(freeAt[r], j)
		}
	}
	return freeAt
}

// plan fixes what the fills need before any table exists — the table
// classes, the liveness plan and every table's nominal Π K size — and is the
// sizing pre-pass and the whole budget: it walks the fill loop on the ledger
// — a table is charged 3 units per entry when its representative is filled
// and gives 2 back when its cost table dies — so a solve that outgrows the
// budget fails here, before the first table is allocated, and one that passes
// here never runs out, and its PeakLiveEntries is final. The charge is
// nominal: which requests end in ErrOOM, and so which the planner degrades to
// the beam, is part of the served answer and does not move with the quotient
// layout.
func (e *exactSolve) plan() error {
	m, sq := e.m, e.sq
	n := len(sq.Order)
	var err error
	if e.rep, e.keys, err = e.tableClasses(); err != nil {
		return err
	}
	e.freeAt = freePlan(sq, e.subsets, e.rep)
	e.tbl = make([]*qtable, n)
	e.tblSizes = make([]int64, n)
	for i, v := range sq.Order {
		size := int64(1)
		for _, d := range sq.Dep[i] {
			if size *= int64(m.K(d)); size > e.budget {
				return fmt.Errorf("%w: table for vertex %d needs >%d entries", ErrOOM, v, e.budget)
			}
		}
		e.tblSizes[i] = size
		if e.rep[i] != i {
			continue
		}
		if err := e.charge(3*size, v); err != nil {
			return err
		}
		for _, j := range e.freeAt[i] {
			e.release(2 * e.tblSizes[j])
		}
	}
	return nil
}
