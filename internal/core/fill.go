package core

import (
	"math"
	"slices"
	"sync/atomic"
	"time"

	"pase/internal/cost"
)

// rowSrc is one input of a vertex's scan: a table laid out as rows, one cost
// per configuration class of the scanned vertex — an oriented TX table, whose
// rows are the kv configurations themselves, or the quotient table of a subset
// (see qtable), whose digit 0 is the scanned vertex. Rows are addressed mixed
// radix, first digit fastest, by the φ digits in digit: digit[j] selects one of
// dim[j] row classes through cls[j].
type rowSrc struct {
	vals  []float64
	w     int     // row width: the classes of the scanned vertex's configurations
	col   []int32 // configuration → column of the row; nil when it is the column
	digit []int
	dim   []int
	cls   [][]int32 // per digit: value → row class; nil when it is the class
}

// digUpd is one entry of a per-digit update list: the digit's value a puts row
// index i at classIn(cls, a)·stride.
type digUpd struct {
	i      int
	stride int64
	cls    []int32
}

// classIn is value a's class under classOf; a nil classOf is the identity.
func classIn(classOf []int32, a int) int {
	if classOf == nil {
		return a
	}
	return int(classOf[a])
}

// classHashMask is ANDed into every row hash of digitClasses. A variable only
// so a test can zero it, making every hash collide, and prove that the exact
// compare alone decides a merge.
var classHashMask = ^uint64(0)

// digitClasses partitions the values 0..kd[k]−1 of every φ digit into classes
// the scan cannot tell apart: a and b are equivalent when every row source
// that reads the digit selects bit-identical rows under both, for every
// setting of the source's other digits. A scan at φ and a scan at φ with each
// digit replaced by its class representative then read the same bits in every
// row, so they produce the same minimum, the same argmin and the same
// candidate count, and one of them is enough. Such values are common: two
// configurations of a neighbour that differ only in a dimension the shared
// tensor does not carry select identical TX rows, and the DP tables built from
// those rows inherit the equality. A digit no row reads has one class.
//
// Sources are compared as stored. A child table holds one column per class of
// the scanned vertex's configurations and one row per combination of its own
// digits' classes, and every column and every row class has a member: two
// values select bit-identical rows of the expanded table exactly when they
// select bit-identical stored rows — which they do trivially where the child
// already has them in one class.
//
// Detection is one hash pass over each source — every row is hashed once and
// its hash added, keyed by which of the row class's rows it is, to the sum of
// the row class it belongs to under each of the source's digits, so the pass
// runs under par in any chunking; a value's sum is that of its row classes —
// and then, digit by digit and value by value, an exact compare against each
// earlier representative with the same sum: equal rows always hash equal,
// values with unequal sums are never compared, and a hash alone never merges
// two values, so the classes are exactly the bit-identity classes whatever the
// hash function does. classOf[k] maps a value to its class — nil where every
// value is its own — reps[k] a class to its smallest value, ascending;
// reps[k][0] is 0. stop is the fill's cancellation poll; after it fires the
// result is meaningless.
func digitClasses(srcs []rowSrc, kd []int, par func(total int64, f func(lo, hi int64)), stop func() bool) (classOf [][]int32, reps [][]int) {
	sums := make([][]uint64, len(kd))
	for s := range srcs {
		src := &srcs[s]
		csum := make([][]atomic.Uint64, len(src.digit)) // per digit and row class
		for j, k := range src.digit {
			if kd[k] > 1 {
				csum[j] = make([]atomic.Uint64, src.dim[j])
			}
		}
		w := int64(src.w)
		par(int64(len(src.vals))/w, func(lo, hi int64) {
			for r := lo; r < hi; r++ {
				if r&cancelCheckMask == 0 && stop() {
					return
				}
				h := rowHash(uint64(s), src.vals[r*w:(r+1)*w])
				rem, stride := r, int64(1)
				for j, d := range src.dim {
					a := rem % int64(d)
					rem /= int64(d)
					if csum[j] != nil {
						x := (h ^ uint64(r-a*stride)) * 0xBF58476D1CE4E5B9
						csum[j][a].Add((x ^ x>>31) & classHashMask)
					}
					stride *= int64(d)
				}
			}
		})
		for j, k := range src.digit {
			if csum[j] == nil {
				continue
			}
			if sums[k] == nil {
				sums[k] = make([]uint64, kd[k])
			}
			for a := range sums[k] {
				sums[k][a] += csum[j][classIn(src.cls[j], a)].Load()
			}
		}
	}
	classOf = make([][]int32, len(kd))
	reps = make([][]int, len(kd))
	for k := range kd {
		cls := make([]int32, kd[k])
		reps[k] = []int{0}
		for a := 1; a < kd[k] && sums[k] != nil; a++ {
			if stop() {
				return classOf, reps
			}
			c := slices.IndexFunc(reps[k], func(b int) bool {
				return sums[k][b] == sums[k][a] && sameRows(srcs, k, a, b)
			})
			if c < 0 {
				c = len(reps[k])
				reps[k] = append(reps[k], a)
			}
			cls[a] = int32(c)
		}
		if len(reps[k]) < kd[k] {
			classOf[k] = cls
		}
	}
	return classOf, reps
}

// rowHash hashes the bit patterns of a row.
func rowHash(seed uint64, row []float64) uint64 {
	h := seed
	for _, x := range row {
		h = (h ^ math.Float64bits(x)) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

// sameRows reports whether values a and b of φ digit k select bit-identical
// rows in every source that reads it. Under one setting of the source's slower
// digits a row class is blk consecutive costs; the settings are blk·dim apart.
func sameRows(srcs []rowSrc, k, a, b int) bool {
	for s := range srcs {
		src := &srcs[s]
		blk := int64(src.w)
		for j, dg := range src.digit {
			ca, cb := int64(0), int64(0) // a digit that is not k selects the same rows under a and b
			if dg == k {
				ca, cb = int64(classIn(src.cls[j], a)), int64(classIn(src.cls[j], b))
			}
			for o := int64(0); ca != cb && o < int64(len(src.vals)); o += blk * int64(src.dim[j]) {
				x, y := src.vals[o+ca*blk:][:blk], src.vals[o+cb*blk:][:blk]
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
						return false
					}
				}
			}
			blk *= int64(src.dim[j])
		}
	}
	return true
}

// qtable is the DP table of one position j, stored as the quotient the fill
// computes it as: cost and choice hold one entry per combination of the
// classes of D(j)'s digits (digit k has dims[k] of them, see digitClasses),
// first digit fastest, and classOf[k] maps a configuration of digit k to its
// class (nil where every configuration is its own). The entry of φ is the
// entry of φ's classes: every reader indexes through classOf, and no Π K copy
// is ever made.
//
// Digits are the members of D(j) by ascending position. At the one position i
// that folds the subset C whose last vertex is v(j), v(i) is digit 0. C is a
// component of X(i) − {v(i)} and as such maximal, so the first vertex off C on
// a path from C to v(i) inside V≤i is v(i) itself; X(j) = C; hence v(i) is a
// later neighbour of X(j), i.e. v(i) ∈ D(j). Every other member of D(j) is a
// neighbour of C outside X(i), so it lies in D(i), after i. The scan over
// v(i)'s own configurations therefore reads one CONTIGUOUS row of v(j)'s
// table, gathered through classOf[0] — a flat strided kernel instead of a
// gather over cache-hostile K²-sized strides — and no subset is a φ-only
// constant to add outside the scan.
type qtable struct {
	cost    []float64 // nil once freed: back-substitution reads choices only
	choice  []int32
	classOf [][]int32
	dims    []int
}

// k is the configuration count of digit d.
func (q *qtable) k(d int) int {
	if q.classOf[d] != nil {
		return len(q.classOf[d])
	}
	return q.dims[d]
}

// txRows returns the TX table of incidence entry ie of vertex v in the
// orientation that makes a scan over v's own configuration contiguous: rows of
// K(v) costs, one row per configuration of the other endpoint.
func txRows(m *cost.Model, ie cost.IncEdge) []float64 {
	if ie.VIsU {
		vals, _ := m.EdgeTableT(ie.E) // [cv*Ku+cu], contiguous in c=cu
		return vals
	}
	vals, _ := m.EdgeTable(ie.E) // [cu*Kv+cv], contiguous in c=cv
	return vals
}

// wire lists the input rows of position i's scan, in summation order: the TX
// row of every incident edge to a later vertex (costs straight from the
// model's eager TX tables, in whichever orientation makes the scan over v's
// own configuration contiguous), then the table row of every connected subset
// of S(i), whose digit 0 is v (see qtable) and whose other digits are φ
// digits, read through the child's classes. Nothing here mutates shared
// state, so the parallel fill reads the sources freely.
func (e *exactSolve) wire(i int) ([]rowSrc, error) {
	kv := e.m.K(e.sq.Order[i])
	var srcs []rowSrc
	err := e.eachLaterEdge(i, func(ie cost.IncEdge, dg int) {
		srcs = append(srcs, rowSrc{vals: txRows(e.m, ie), w: kv, digit: []int{dg}, dim: []int{e.kd[dg]}, cls: [][]int32{nil}})
	})
	if err != nil {
		return nil, err
	}
	for _, jPos := range e.children[i] {
		digits, err := e.childDigits(i, jPos, nil)
		if err != nil {
			return nil, err
		}
		q := e.tbl[e.rep[jPos]]
		srcs = append(srcs, rowSrc{vals: q.cost, w: q.dims[0], col: q.classOf[0], digit: digits, dim: q.dims[1:], cls: q.classOf[1:]})
	}
	return srcs, nil
}

// fill computes position i's table: wire its input rows, partition its
// digits into classes the rows cannot tell apart, and scan once per class.
func (e *exactSolve) fill(i int) (*qtable, error) {
	start := time.Now()
	dep := e.sq.Dep[i]
	e.setDigits(i)
	defer e.resetDigits(i)
	srcs, err := e.wire(i)
	if err != nil {
		return nil, err
	}

	// rowDig lists, per φ digit, which row indices that digit moves and by
	// what stride — the odometer then updates only what a digit change
	// actually touches, instead of refolding and reslicing every row per
	// entry.
	rowDig := make([][]digUpd, len(dep))
	for s := range srcs {
		stride := int64(1)
		for j, dg := range srcs[s].digit {
			rowDig[dg] = append(rowDig[dg], digUpd{s, stride, srcs[s].cls[j]})
			stride *= int64(srcs[s].dim[j])
		}
	}

	// Quotient: the scan reads φ through its rows only, so two φ that
	// select the same bits in every row share one scan. Each digit's values
	// fall into classes the rows cannot tell apart (digitClasses); a digit
	// no row reads, or with one configuration, has a single class. The
	// table is one scan per combination of class representatives — subSize
	// of them — and is stored that way (see qtable).
	classOf, reps := digitClasses(srcs, e.kd, e.par, e.stopped)
	if e.cancelled.Load() {
		return nil, e.cancelErr()
	}
	q := &qtable{classOf: classOf, dims: make([]int, len(dep))}
	subSize := int64(1)
	for k := range dep {
		q.dims[k] = len(reps[k])
		subSize *= int64(len(reps[k]))
	}
	q.cost, q.choice = make([]float64, subSize), make([]int32, subSize)
	scanStart := time.Now()
	e.st.Stages.Fill += scanStart.Sub(start)
	e.scan(e.sq.Order[i], q, srcs, rowDig, reps)
	e.st.Stages.Scan += time.Since(scanStart)
	// A cancelled fill returned early with a partial table; par has already
	// drained its goroutines, so this is the clean exit point.
	if e.cancelled.Load() {
		return nil, e.cancelErr()
	}
	return q, nil
}
