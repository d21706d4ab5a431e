package core

import (
	"encoding/binary"
	"fmt"

	"pase/internal/cost"
	"pase/internal/seq"
)

// tableClasses groups the positions of the ordering into classes whose DP
// tables are equal by construction: rep[i] is the first position whose table
// is computed from the same inputs, wired the same way, as position i's
// (rep[i] == i for a representative). A table of recurrence (4) is a function
// of its vertex's TL row, the configuration count of every φ digit, the TX
// table of every later neighbour and the digit that addresses it, and the
// tables of its connected subsets with the map from each child's dependent
// set to φ digits (after the vertex itself), TX tables and subsets in summation
// order. The key spells out exactly that, and two positions fall into one
// class only when their keys are the same bytes (the map compares them), so
// the fill, its digit classes, its candidate counts and every bit of the table
// are those of the representative's.
//
// TL rows and TX tables are named by identity — first cell; the length
// follows from the configuration counts in the key — which is what interning
// gives repeated layers in common, a TX table also by the side the vertex
// reads it from, which fixes its orientation. A model built without
// interning has no two tables in common, so every position is its own class. A child is named by
// its class, an index: this pass fixes the classes before any table exists,
// so there is no table address to name it by. The pass reads the model, the
// ordering and the subsets only, no table data, and wires them as the fill
// does (eachLaterEdge, childDigits).
func (f *frame) tableClasses() ([]int, error) {
	m, sq := f.m, f.sq
	n := len(sq.Order)
	rep := make([]int, n)
	tables := make(map[*float64]int64)
	var key []byte
	put := func(x int64) { key = binary.AppendVarint(key, x) }
	putTable := func(vals []float64) {
		id, ok := tables[&vals[0]]
		if !ok {
			id = int64(len(tables))
			tables[&vals[0]] = id
		}
		put(id)
	}
	var digits []int
	seen := make(map[string]int, n)
	for i, v := range sq.Order {
		key = key[:0]
		putTable(m.TLRow(v))
		put(int64(m.K(v)))
		put(int64(len(sq.Dep[i])))
		f.setDigits(i)
		for _, k := range f.kd {
			put(int64(k))
		}
		err := f.eachLaterEdge(i, func(ie cost.IncEdge, dg int) {
			// The stored table and the side the fill reads it from name
			// txRows' orientation without building a transpose.
			vals, _ := m.EdgeTable(ie.E)
			putTable(vals)
			if ie.VIsU {
				put(1)
			} else {
				put(0)
			}
			put(int64(dg))
		})
		put(-1) // no table has this id: the TX sources end here
		for _, sub := range f.subsets[i] {
			j := f.child(sub)
			if err == nil {
				digits, err = f.childDigits(i, j, digits)
			}
			put(int64(rep[j])) // D(j)'s size is part of the child's own key
			for _, dg := range digits {
				put(int64(dg))
			}
		}
		f.resetDigits(i)
		if err != nil {
			return nil, err
		}
		r, ok := seen[string(key)]
		if !ok {
			r = i
			seen[string(key)] = i
		}
		rep[i] = r
	}
	return rep, nil
}

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
	if e.rep, err = e.tableClasses(); err != nil {
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
