package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"pase/internal/cost"
	"pase/internal/seq"
)

// frame is what a kernel run — an exact solve or one beam pass — shares with
// the other: the model, the ordering and its subsets, the Stats, the
// cancellation poll, the budget ledger, the dense digit map with the input
// wiring over it, back-substitution and the checked result. kernel prefixes
// the run's error messages ("" or "beam ").
type frame struct {
	m       *cost.Model
	sq      *seq.Sequence
	subsets [][][]int
	kernel  string
	st      Stats

	// The first poll that observes ctx.Done() sets cancelled; later polls, in
	// any fill goroutine, exit on the cheaper atomic load.
	ctx       context.Context
	done      <-chan struct{}
	cancelled atomic.Bool

	// The ledger counts 4-byte units: a float64 is 2, an int32 1, so an exact
	// table entry (cost + choice) is 3, and budget, in such entries, is
	// 3·budget units. live is what the run holds now.
	budget, live int64

	digitOf []int // node → φ digit of the current position; -1 = absent
	kd      []int // configuration count of each φ digit of the current position
}

// checkInput rejects what no kernel can run on: an empty graph, or an
// ordering that does not cover every vertex.
func checkInput(m *cost.Model, sq *seq.Sequence) error {
	if m.G.Len() == 0 {
		return fmt.Errorf("core: empty graph")
	}
	if len(sq.Order) != m.G.Len() {
		return fmt.Errorf("core: ordering covers %d of %d vertices", len(sq.Order), m.G.Len())
	}
	return nil
}

// newFrame starts a run with the Stats the model and the ordering fix before
// any table is filled.
func newFrame(ctx context.Context, m *cost.Model, sq *seq.Sequence, subsets [][][]int, opts Options, kernel string) *frame {
	return &frame{
		m: m, sq: sq, subsets: subsets, kernel: kernel,
		st:  Stats{MaxDepSize: sq.MaxDepSize(), ModelInfo: m.Info()},
		ctx: ctx, done: ctx.Done(),
		budget:  opts.maxEntries(),
		digitOf: slices.Repeat([]int{-1}, len(sq.Order)),
	}
}

// stopped is the cancellation poll: a nil test under a Background context.
func (f *frame) stopped() bool {
	if f.done == nil {
		return false
	}
	if f.cancelled.Load() {
		return true
	}
	select {
	case <-f.done:
		f.cancelled.Store(true)
		return true
	default:
		return false
	}
}

func (f *frame) cancelErr() error {
	return fmt.Errorf("core: %ssolve cancelled: %w", f.kernel, context.Cause(f.ctx))
}

// charge takes units for vertex v's tables and records the peak, in exact
// entries rounded up; where they would exceed the budget it takes nothing and
// fails.
func (f *frame) charge(units int64, v int) error {
	if !f.fits(units) {
		return fmt.Errorf("%w: live %stables at vertex %d exceed %d entries", ErrOOM, f.kernel, v, f.budget)
	}
	f.live += units
	f.st.PeakLiveEntries = max(f.st.PeakLiveEntries, (f.live+2)/3)
	return nil
}

func (f *frame) fits(units int64) bool { return f.live+units <= 3*f.budget }

func (f *frame) release(units int64) { f.live -= units }

// setDigits maps each member of D(i) to its φ digit, ascending by position,
// and sets kd; resetDigits clears the map.
func (f *frame) setDigits(i int) {
	f.kd = f.kd[:0]
	for k, d := range f.sq.Dep[i] {
		f.digitOf[d] = k
		f.kd = append(f.kd, f.m.K(d))
	}
}

func (f *frame) resetDigits(i int) {
	for _, d := range f.sq.Dep[i] {
		f.digitOf[d] = -1
	}
}

// child is the position of the subset sub's table: its last vertex's.
func (f *frame) child(sub []int) int { return f.sq.Pos[sub[len(sub)-1]] }

// eachLaterEdge visits, in incidence order, every edge from v(i) to a later
// vertex with that vertex's φ digit; the digits of D(i) must be set.
func (f *frame) eachLaterEdge(i int, visit func(ie cost.IncEdge, dg int)) error {
	v := f.sq.Order[i]
	for _, ie := range f.m.Incidence(v) {
		if f.sq.Pos[ie.Other] <= i { // earlier neighbours and self-loops
			continue
		}
		dg := f.digitOf[ie.Other]
		if dg < 0 {
			return fmt.Errorf("core: later neighbour %d of %d missing from D(%d)", ie.Other, v, i)
		}
		visit(ie, dg)
	}
	return nil
}

// childDigits maps D(jPos), for a subset jPos of position i, onto i's φ
// digits, in slots' storage: D(jPos) is v(i) followed by members of D(i) (see
// qtable), and slots[k] is the digit of D(jPos)[k+1].
func (f *frame) childDigits(i, jPos int, slots []int) ([]int, error) {
	dj := f.sq.Dep[jPos]
	if len(dj) == 0 || dj[0] != f.sq.Order[i] {
		return nil, fmt.Errorf("core: v(%d) is not the first member of D(%d): ordering's dependent sets are inconsistent", i, jPos)
	}
	slots = slots[:0]
	for _, d := range dj[1:] {
		if f.digitOf[d] < 0 {
			return nil, fmt.Errorf("core: D(%d) member %d not in D(%d) ∪ {v(%d)}: ordering's dependent sets are inconsistent", jPos, d, i, i)
		}
		slots = append(slots, f.digitOf[d])
	}
	return slots, nil
}

// backSubstitute extracts the strategy from v(|V|) with φ = ∅: the kernel's
// choice at a position, under the configurations already fixed for its
// dependent set, fixes its vertex, and the walk descends into its subsets.
func (f *frame) backSubstitute(choice func(pos int, idx []int) (int, error)) ([]int, error) {
	start := time.Now()
	defer func() { f.st.Stages.BackSub = time.Since(start) }()
	n := len(f.sq.Order)
	idx := make([]int, n)
	assigned := make([]bool, n)
	var walk func(pos int) error
	walk = func(pos int) error {
		v := f.sq.Order[pos]
		for _, d := range f.sq.Dep[pos] {
			if !assigned[d] {
				return fmt.Errorf("core: %sback-substitution reached %d before its dependent %d", f.kernel, v, d)
			}
		}
		c, err := choice(pos, idx)
		if err != nil {
			return err
		}
		idx[v], assigned[v] = c, true
		for _, sub := range f.subsets[pos] {
			if err := walk(f.child(sub)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(n - 1); err != nil {
		return nil, err
	}
	if v := slices.Index(assigned, false); v >= 0 {
		return nil, fmt.Errorf("core: %sback-substitution left node %d unassigned (graph not weakly connected?)", f.kernel, v)
	}
	return idx, nil
}

// result is the extracted strategy with the root value it came from. Both
// kernels fold exact child values, so by Theorem 1 the strategy realizes that
// value: the root value and EvalIdx sum the same n + |E| terms in two orders,
// and they may differ by that sum's rounding alone. Every term is a
// nonnegative cost, so |ev| is their absolute sum. A larger gap is a wiring
// bug, returned as an error.
func (f *frame) result(idx []int, root float64) (*Result, error) {
	ev := f.m.EvalIdx(idx)
	if math.Abs(ev-root) > cost.SumErrorBound(len(idx)+len(f.m.Edges()), math.Abs(ev)) {
		return nil, fmt.Errorf("core: %sextracted strategy costs %v but the root value is %v", f.kernel, ev, root)
	}
	return &Result{Cost: root, Idx: idx, Strategy: f.m.StrategyFromIdx(idx), Seq: f.sq, Stats: f.st}, nil
}
