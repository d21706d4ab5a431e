package core

import (
	"fmt"

	"pase/internal/canon"
	"pase/internal/cost"
)

// tableClasses groups the positions of the ordering into classes whose DP
// tables are equal by construction: rep[i] is the first position whose table
// is computed from the same inputs, wired the same way, as position i's
// (rep[i] == i for a representative), and keys[i] is the digest of those
// inputs. A table of recurrence (4) is a function of its vertex's TL row,
// the TX table of every later neighbour and the φ digit that addresses it,
// and the tables of its connected subsets with the map from each child's
// dependent set to φ digits (after the vertex itself), TX tables and subsets
// in summation order. The key spells out exactly that, and two positions
// fall into one class only when their keys are the same bytes (a map keyed
// by them; no hash decides), so the fill, its digit classes, its candidate
// counts and every bit of the table are those of the representative's. Each
// class's key is hashed once, into its digest. Digit sizes need no term: the
// TL row fixes K(v), and each member of D(i) is a later neighbour, whose
// oriented TX table fixes its K, or a member of a child's dependent set,
// whose key fixes it. Canon's type tags end the TX sources where the first
// child begins.
//
// Inputs are named by content: a TL row by its vertex class fingerprint, a
// TX table by its edge class fingerprint and the side the vertex reads it
// from (an edge class leaves the orientation open), and a child by its own
// key. Equal keys thus mean byte-equal tables in any two models and
// orderings, which is what lets SolveKeep keep a snapshot's table under the
// same key (hash-consing). Within a model this groups the positions that
// read the same interned tables: interning and elimination share a table
// exactly when the fingerprints match. A model built without interning has
// no fingerprints; its keys name the vertex by index, so every position is
// its own class, and such keys are never compared across models (see named).
// The pass reads the model, the ordering and the children only, no table
// data, and wires them as the fill does (eachLaterEdge, childDigits).
func (f *frame) tableClasses() (rep []int, keys []canon.Fingerprint, err error) {
	m, sq := f.m, f.sq
	n := len(sq.Order)
	rep, keys = make([]int, n), make([]canon.Fingerprint, n)
	byName := named(m)
	w := canon.NewRecorder()
	var digits []int
	seen := make(map[string]int, n)
	for i, v := range sq.Order {
		w.Truncate(0) // keys never leave the process: no label
		if byName {
			w.FP(m.VertexClassFP(v))
		} else {
			w.Int(v)
		}
		f.setDigits(i)
		err = f.eachLaterEdge(i, func(ie cost.IncEdge, dg int) {
			if byName { // by index the vertex alone makes the key unique
				w.FP(m.EdgeClassFP(ie.E))
			}
			w.Bool(ie.VIsU)
			w.Int(dg)
		})
		for _, j := range f.children[i] {
			if err == nil {
				digits, err = f.childDigits(i, j, digits)
			}
			w.FP(keys[j]) // which fixes |D(j)| and each member's K
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
func freePlan(children [][]int, rep []int) [][]int {
	lastReader := make([]int, len(children))
	for j := range lastReader {
		lastReader[j] = -1
	}
	for i, kids := range children {
		if rep != nil && rep[i] != i {
			continue
		}
		for _, j := range kids {
			if rep != nil {
				j = rep[j]
			}
			lastReader[j] = i // i ascends
		}
	}
	freeAt := make([][]int, len(children))
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
	e.freeAt = freePlan(e.children, e.rep)
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
