// Beam solving: a bounded-width sibling of the exact dependent-set
// DP. Where the exact kernel materializes the full K^|D(i)| table per
// position, the beam keeps at most W surviving (φ, C)-states per table,
// joined sparsely from the retained states of the child subsets, so table
// size — and therefore memory and time — is O(W) per position regardless of
// how entangled the graph is. A greedy guide strategy is force-retained in
// every table, so every pass yields a valid strategy; the reported cost is
// the exact cost of that strategy (partial sums along retained paths are
// never approximated), and a sound optimality gap is derived against an
// admissible relaxation lower bound. SolveBeam runs one pass, or, under a
// positive gap target, doubles W until the target, exactness or the memory
// budget stops it, so its answer is a function of its inputs alone.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"pase/internal/cost"
	"pase/internal/seq"
)

// BeamOptions tunes the beam solver. The embedded Options carry the memory
// budget and worker count exactly as for the exact solver.
type BeamOptions struct {
	Options
	// Width is W, the number of (φ, C)-states retained per DP table (of the
	// first pass, when refinement doubles it). It must be positive: the
	// unbounded beam is the exact DP, which is Solve.
	Width int
	// GapTarget controls progressive refinement. <= 0: one pass at Width.
	// > 0: keep doubling W until the tracked gap is at or below the target,
	// a pass is exact, or the width outgrows the memory budget.
	GapTarget float64
	// OnPass, when non-nil, observes each completed refinement pass with the
	// running best cost and gap (monotonically non-increasing in cost).
	OnPass func(pass, width int, cost, gap float64)
}

// BeamResult is a beam-solved strategy: the usual Result plus the tracked
// optimality gap and refinement metadata.
type BeamResult struct {
	Result
	// Gap is the sound relative optimality gap: Cost is the exact cost of
	// the returned strategy, and Cost/(1+Gap) is an admissible lower bound
	// on the true optimum, so Cost >= OPT >= Cost/(1+Gap) always holds.
	Gap float64
	// Exact reports that the returned strategy is provably optimal: a pass
	// completed without ever truncating a frontier.
	Exact bool
	// Width is the beam width of the pass that produced the returned
	// strategy.
	Width int
	// Passes is how many refinement passes ran.
	Passes int
}

// maxBeamGap caps the reported gap so it stays finite (and JSON-encodable)
// even against a degenerate non-positive lower bound.
const maxBeamGap = 1e18

// beamPartial is one join-in-progress state: the flat table index over the
// φ digits assigned so far, the exact accumulated cost, and v's own
// configuration C. (flat, c) pairs are unique within a frontier.
type beamPartial struct {
	flat int64
	cost float64
	c    int32
}

// less is the strict total order (cost, flat, c) every frontier is cut under.
func (p beamPartial) less(q beamPartial) bool {
	if p.cost != q.cost {
		return p.cost < q.cost
	}
	if p.flat != q.flat {
		return p.flat < q.flat
	}
	return p.c < q.c
}

// partialLess is less, or with byFlat the retained tables' order (flat, cost,
// c): the first partial of each flat is then its cheapest, smallest C on ties,
// matching the exact kernel's strict-< argmin.
func partialLess(p, q beamPartial, byFlat bool) bool {
	if byFlat && p.flat != q.flat {
		return p.flat < q.flat
	}
	return p.less(q)
}

// sortPartials sorts ps ascending under partialLess — a strict total order
// either way, so the result does not depend on the algorithm. It is
// sortEnts's bottom-up merge sort, with tmp (at least len(ps)) as the second
// buffer, for the same reason: the comparison inlines, which
// slices.SortFunc's comparator call does not.
func sortPartials(ps, tmp []beamPartial, byFlat bool) {
	const run = 8
	for lo := 0; lo < len(ps); lo += run {
		r := ps[lo:min(lo+run, len(ps))]
		for j := 1; j < len(r); j++ {
			e := r[j]
			k := j
			for ; k > 0 && partialLess(e, r[k-1], byFlat); k-- {
				r[k] = r[k-1]
			}
			r[k] = e
		}
	}
	src, dst := ps, tmp[:len(ps)]
	for w := run; w < len(ps); w *= 2 {
		for lo := 0; lo < len(ps); lo += 2 * w {
			mid, hi := min(lo+w, len(ps)), min(lo+2*w, len(ps))
			i, j := lo, mid
			for k := lo; k < hi; k++ {
				if j >= hi || i < mid && !partialLess(src[j], src[i], byFlat) {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
			}
		}
		src, dst = dst, src
	}
	if len(ps) > 0 && &src[0] != &ps[0] {
		copy(ps, src)
	}
}

// beamFrontier keeps the k smallest partials of a stream under less. It
// holds at most 2k of them: reaching 2k it selects the k smallest and from
// then on refuses, with one compare, whatever is not below the k-th. The k
// smallest of a stream under a strict total order are the same whenever it is
// compacted, and a refused partial has k smaller ones before it, so the
// result equals sorting everything and cutting.
type beamFrontier struct {
	buf []beamPartial
	tmp []beamPartial // sortPartials' merge buffer, grown per sort
	k   int
	thr beamPartial // the k-th smallest pushed so far; valid once cut
	cut bool        // more than k were pushed
}

func (f *beamFrontier) reset(k int) { f.buf, f.k, f.cut = f.buf[:0], k, false }

func (f *beamFrontier) push(p beamPartial) {
	if f.cut && !p.less(f.thr) {
		return
	}
	if f.buf = append(f.buf, p); len(f.buf) >= 2*f.k {
		f.compact()
	}
}

func (f *beamFrontier) compact() {
	f.selectSmallest()
	f.buf = f.buf[:f.k]
	f.thr, f.cut = f.buf[f.k-1], true
}

// sorted returns the survivors in ascending order; the slice is f's own
// buffer, valid until the next reset.
func (f *beamFrontier) sorted() []beamPartial {
	if len(f.buf) > f.k {
		f.compact()
	}
	f.sort(f.buf, false)
	return f.buf
}

// sort is sortPartials over f's merge buffer, grown to the longest slice the
// pass has sorted.
func (f *beamFrontier) sort(ps []beamPartial, byFlat bool) {
	f.tmp = grown(f.tmp, len(ps))
	sortPartials(ps, f.tmp, byFlat)
}

// selectSmallest reorders f's partials so that the k-th is their k-th
// smallest under less and nothing before it is larger: Hoare quickselect
// around the middle element, handing the remaining range to a sort once
// 2·log2(n) rounds have not narrowed it to a point, so the worst case stays
// O(n log n).
func (f *beamFrontier) selectSmallest() {
	ps, k := f.buf, f.k
	for lo, hi, rounds := 0, len(ps)-1, 2*bits.Len(uint(len(ps))); lo < hi; rounds-- {
		if rounds == 0 {
			f.sort(ps[lo:hi+1], false)
			return
		}
		pivot := ps[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for ps[i].less(pivot) {
				i++
			}
			for pivot.less(ps[j]) {
				j--
			}
			if i <= j {
				ps[i], ps[j] = ps[j], ps[i]
				i++
				j--
			}
		}
		if k-1 <= j {
			hi = j
		} else if k-1 >= i {
			lo = i
		} else {
			return
		}
	}
}

// beamTable is one position's retained frontier, sorted by flat for binary
// search. costs are dropped after the table's last reader, mirroring the
// exact solver's cost/choice liveness split; flats and choices stay live for
// back-substitution.
type beamTable struct {
	flats   []int64
	costs   []float64
	choices []int32
}

// beamGuideIdx builds the greedy guide strategy: nodes in ID order pick the
// configuration minimizing their own layer cost plus the edges to already
// assigned neighbours. It is deterministic and always valid; force-retaining
// its states in every table guarantees each pass extracts SOME strategy no
// worse than the guide.
func beamGuideIdx(m *cost.Model) []int {
	idx := make([]int, m.G.Len())
	for v := range idx {
		best := math.Inf(1)
		for c, s := range m.TLRow(v) {
			for _, ie := range m.Incidence(v) {
				switch {
				case ie.Self:
					s += m.EdgeCost(ie.E, c, c)
				case ie.Other > v:
				case ie.VIsU:
					s += m.EdgeCost(ie.E, c, idx[ie.Other])
				default:
					s += m.EdgeCost(ie.E, idx[ie.Other], c)
				}
			}
			if s < best {
				best, idx[v] = s, c
			}
		}
	}
	return idx
}

// beamPlan is what every pass of one SolveBeam shares: the model and
// ordering, the subset wiring and liveness plan, the guide strategy, and
// each edge table's row minima in both orientations — minU[e][cu] is the
// minimum of TX(e, cu, ·), minV[e][cv] of TX(e, ·, cv) — computed once per
// distinct table (interned edge classes share one backing slice). The lower
// bound and every pass's early stop read them.
type beamPlan struct {
	m          *cost.Model
	sq         *seq.Sequence
	subsets    [][][]int
	freeAt     [][]int
	guide      []int
	minU, minV [][]float64
}

func newBeamPlan(m *cost.Model, sq *seq.Sequence) *beamPlan {
	subsets := seq.ConnectedSubsetsAll(m.G, sq)
	bp := &beamPlan{m: m, sq: sq, subsets: subsets, freeAt: freePlan(sq, subsets, nil), guide: beamGuideIdx(m)}
	seen := make(map[*float64][]float64) // by first cell: a table has one shape
	rowMins := func(vals []float64, stride int) []float64 {
		mins, ok := seen[&vals[0]]
		if !ok {
			mins = make([]float64, len(vals)/stride)
			for r := range mins {
				mins[r] = slices.Min(vals[r*stride : (r+1)*stride])
			}
			seen[&vals[0]] = mins
		}
		return mins
	}
	bp.minU = make([][]float64, len(m.Edges()))
	bp.minV = make([][]float64, len(m.Edges()))
	for e := range m.Edges() {
		bp.minU[e] = rowMins(m.EdgeTable(e))
		bp.minV[e] = rowMins(m.EdgeTableT(e))
	}
	return bp
}

// lowerBound computes an admissible lower bound on the true optimum as the
// max of two relaxations: (1) every vertex and every edge at its independent
// minimum, and (2) each vertex minimizing its layer cost plus half of each
// incident edge's row minimum (TX(e,cu,cv) >= ½·min over cv + ½·min over cu
// splits every edge between its endpoints while keeping the per-vertex
// choice consistent across that vertex's edges).
func (bp *beamPlan) lowerBound() float64 {
	m := bp.m
	n := m.G.Len()
	lb1 := 0.0
	for v := 0; v < n; v++ {
		lb1 += slices.Min(m.TLRow(v))
	}
	for e := range m.Edges() {
		lb1 += slices.Min(bp.minU[e])
	}
	lb2 := 0.0
	for v := 0; v < n; v++ {
		best := math.Inf(1)
		for c, s := range m.TLRow(v) {
			for _, ie := range m.Incidence(v) {
				switch {
				case ie.Self:
					s += m.EdgeCost(ie.E, c, c)
				case ie.VIsU:
					s += 0.5 * bp.minU[ie.E][c]
				default:
					s += 0.5 * bp.minV[ie.E][c]
				}
			}
			best = min(best, s)
		}
		lb2 += best
	}
	return math.Max(lb1, lb2)
}

// beamGap converts a realized strategy cost and an admissible lower bound
// into the relative gap, clamped to [0, maxBeamGap].
func beamGap(costV, lb float64) float64 {
	switch {
	case lb > 0:
		return min(max(costV/lb-1, 0), maxBeamGap)
	case costV <= lb:
		return 0
	}
	return maxBeamGap
}

// SolveBeam runs the beam DP over the given ordering: bounded-width passes,
// doubling the width while GapTarget asks for more (see BeamOptions), and
// returns the best strategy found with its tracked gap. Every stop depends on
// the inputs alone: an ErrOOM on a later pass returns the best result so far,
// and cancellation is an error like any other.
func SolveBeam(ctx context.Context, m *cost.Model, sq *seq.Sequence, opts BeamOptions) (*BeamResult, error) {
	if opts.Width <= 0 {
		return nil, fmt.Errorf("core: beam width %d, want > 0", opts.Width)
	}
	if err := checkInput(m, sq); err != nil {
		return nil, err
	}
	start := time.Now()
	bp := newBeamPlan(m, sq)
	lb := bp.lowerBound()
	stages := StageTimes{Plan: time.Since(start)}

	var best *BeamResult
	var totalStates int64
	w := opts.Width
	for pass := 1; ; pass++ {
		res, exact, err := bp.pass(ctx, opts.Options, w, beamJoinCap(w), nil)
		if err != nil {
			// A budget blowup on a LATER pass is as deterministic as the
			// widths before it: the best strategy already found stands.
			if best != nil && errors.Is(err, ErrOOM) {
				break
			}
			return nil, err
		}
		totalStates += res.Stats.States
		st := res.Stats.Stages
		stages.Join, stages.Keep, stages.BackSub = stages.Join+st.Join, stages.Keep+st.Keep, stages.BackSub+st.BackSub
		if best == nil || res.Cost < best.Cost || exact {
			gap := beamGap(res.Cost, lb)
			if exact {
				gap = 0
			}
			best = &BeamResult{Result: *res, Gap: gap, Exact: exact, Width: w}
		}
		best.Passes = pass
		best.Stats.States, best.Stats.Stages = totalStates, stages
		if opts.OnPass != nil {
			opts.OnPass(pass, w, best.Cost, best.Gap)
		}
		if best.Exact || opts.GapTarget <= 0 || best.Gap <= opts.GapTarget {
			break // proven optimal, a single pass, or the target reached
		}
		// A width beyond the entry budget can only ErrOOM; stop refining.
		if int64(w) > opts.maxEntries() {
			break
		}
		w *= 2
	}
	return best, nil
}

// beamJoinCap is k, the bound on the transient frontier between generation
// steps; the final per-table truncation is to width. 4x slack lets distinct
// configurations C survive the intermediate steps even when they will
// collapse under the per-flat group-by.
func beamJoinCap(width int) int { return max(4*width, 64) }

// beamEdge is an incident edge to a later vertex: its table oriented
// vals[other*kv+c] like the exact kernel, that orientation's row minima, the
// other endpoint and its φ digit.
type beamEdge struct {
	vals, mins []float64
	other, dg  int
}

// beamRow is one edge row a generation step attaches: edge li of the
// position, its row picked by digit k of the entry being joined.
type beamRow struct{ li, k int }

// beamPass is one bounded-width pass on the shared frame. Its working memory
// is allocated once per pass and reused across positions: the sorted
// partials being extended, the frontier collecting their extensions, and the
// wiring of the position and of the current join.
type beamPass struct {
	*frame
	bp       *beamPlan
	width, k int
	tables   []beamTable
	pruned   bool       // some frontier or table was cut
	v, kv    int        // the position's vertex and its configuration count
	erefs    []beamEdge // its incident edges to later vertices
	cur      []beamPartial
	front    beamFrontier
	pstride  []int64     // each φ digit's stride in the flat index
	assigned []bool      // φ digits some generation step has set
	slot     []int       // per child digit after v's: the φ digit
	cdg      []int       // the child entry being joined, decoded
	rows     []beamRow   // edge rows this step attaches
	erows    [][]float64 // per row, the row the entry being joined picks
	have     []int64     // per partial: its assigned digits among slot, as a flat
}

// flatAt is position pos's table index under the configurations cfg gives
// its dependent set (first member fastest, as in the exact kernel).
func (bp *beamPlan) flatAt(pos int, cfg []int) int64 {
	flat, stride := int64(0), int64(1)
	for _, d := range bp.sq.Dep[pos] {
		flat += int64(cfg[d]) * stride
		stride *= int64(bp.m.K(d))
	}
	return flat
}

// pass runs one bounded-width fill over every position — at most k partials
// between generation steps, at most width retained states per table plus the
// guide's — and extracts the best retained strategy. The second return
// reports exactness: true when no frontier was ever cut, in which case the
// sparse join enumerated the full recurrence and the result equals the exact
// DP's. onTable, when non-nil, observes each table as it is published.
func (bp *beamPlan) pass(ctx context.Context, opts Options, width, k int, onTable func(pos int, t beamTable)) (*Result, bool, error) {
	p := &beamPass{frame: newFrame(ctx, bp.m, bp.sq, bp.subsets, opts, "beam "), bp: bp, width: width, k: k, tables: make([]beamTable, len(bp.sq.Order))}
	p.front.reset(k)
	for i := range bp.sq.Order {
		if p.stopped() {
			return nil, false, p.cancelErr()
		}
		start := time.Now()
		if err := p.join(i); err != nil {
			return nil, false, err
		}
		joined := time.Now()
		p.st.Stages.Join += joined.Sub(start)
		if err := p.keep(i, onTable); err != nil {
			return nil, false, err
		}
		p.st.Stages.Keep += time.Since(joined)
	}
	// A choice is found by binary search on the flat. Every entry's children
	// exist by construction (joins only extend retained child states; guide
	// states are force-retained), so the walk cannot dead-end.
	idx, err := p.backSubstitute(func(pos int, idx []int) (int, error) {
		flat := bp.flatAt(pos, idx)
		j, ok := slices.BinarySearch(p.tables[pos].flats, flat)
		if !ok {
			return 0, fmt.Errorf("core: beam back-substitution: no retained state at position %d flat %d", pos, flat)
		}
		return int(p.tables[pos].choices[j]), nil
	})
	var res *Result
	if err == nil {
		res, err = p.result(idx, p.tables[len(idx)-1].costs[0])
	}
	return res, err == nil && !p.pruned, err
}

// join builds position i's frontier in cur, ascending in cost: every
// configuration of v(i) at φ-flat 0, extended by each subset's retained
// table, then by every value of the digits no subset covered.
func (p *beamPass) join(i int) error {
	m, dep := p.m, p.sq.Dep[i]
	p.v = p.sq.Order[i]
	p.kv = m.K(p.v)
	p.setDigits(i)
	p.pstride = p.pstride[:0]
	flatSpace := int64(1)
	for _, kk := range p.kd {
		if flatSpace > (math.MaxInt64/4)/int64(kk) {
			return fmt.Errorf("core: beam flat index space at vertex %d exceeds int64 (dependent set too entangled)", p.v)
		}
		p.pstride = append(p.pstride, flatSpace)
		flatSpace *= int64(kk)
	}
	p.erefs = p.erefs[:0]
	err := p.eachLaterEdge(i, func(ie cost.IncEdge, dg int) {
		mins := p.bp.minU[ie.E]
		if ie.VIsU {
			mins = p.bp.minV[ie.E]
		}
		p.erefs = append(p.erefs, beamEdge{vals: txRows(m, ie), mins: mins, other: ie.Other, dg: dg})
	})
	if err != nil {
		return err
	}
	p.assigned = grown(p.assigned, len(dep))
	clear(p.assigned)

	for c, tl := range m.TLRow(p.v) {
		p.front.push(beamPartial{cost: tl, c: int32(c)})
	}
	p.take()

	for _, sub := range p.subsets[i] {
		if err := p.joinChild(i, p.child(sub)); err != nil {
			return err
		}
	}

	// Digits no subset covered (edge-only or value-independent attachments):
	// enumerate their values so later parents can match any combination,
	// attaching edge costs where present.
	for dg := range dep {
		if p.assigned[dg] {
			continue
		}
		p.rows = p.rows[:0]
		p.attach(dg, 0)
		p.have = grown(p.have, len(p.cur))
		clear(p.have)
		p.cdg = grown(p.cdg, 1)
		for d := 0; d < p.kd[dg]; d++ {
			p.cdg[0] = d
			if err := p.extend(0, int64(d)*p.pstride[dg], 0, -1); err != nil {
				return err
			}
		}
		p.assigned[dg] = true
		p.take()
	}
	return nil
}

// joinChild extends cur by the retained table of jPos, a subset of position
// i, whose flat's digit 0 is v(i) and whose other digits are φ digits of i
// (childDigits): a child entry joins the partials that agree with it on v
// and on the digits already assigned.
func (p *beamPass) joinChild(i, jPos int) error {
	slots, err := p.childDigits(i, jPos, p.slot)
	if err != nil {
		return err
	}
	p.slot, p.rows = slots, p.rows[:0]
	for kk, dg := range slots {
		if !p.assigned[dg] {
			p.attach(dg, kk+1)
		}
	}
	p.have = grown(p.have, len(p.cur))
	for pi, q := range p.cur {
		p.have[pi] = 0
		for _, dg := range slots {
			if p.assigned[dg] {
				p.have[pi] += q.flat / p.pstride[dg] % int64(p.kd[dg]) * p.pstride[dg]
			}
		}
	}
	p.cdg = grown(p.cdg, len(slots)+1)
	child := &p.tables[jPos]
	for ei, rem := range child.flats {
		vc := rem % int64(p.kv)
		rem /= int64(p.kv)
		p.cdg[0] = int(vc)
		flatAdd, need := int64(0), int64(0)
		for kk, dg := range slots {
			d := rem % int64(p.kd[dg])
			rem /= int64(p.kd[dg])
			p.cdg[kk+1] = int(d)
			if p.assigned[dg] {
				need += d * p.pstride[dg]
			} else {
				flatAdd += d * p.pstride[dg]
			}
		}
		if err := p.extend(child.costs[ei], flatAdd, need, int(vc)); err != nil {
			return err
		}
	}
	for _, dg := range slots {
		p.assigned[dg] = true
	}
	p.take()
	return nil
}

// attach adds the rows of the edges to digit dg, read through digit k of the
// entries about to be joined: edge costs attach when their φ digit is first
// assigned.
func (p *beamPass) attach(dg, k int) {
	for li := range p.erefs {
		if p.erefs[li].dg == dg {
			p.rows = append(p.rows, beamRow{li, k})
		}
	}
}

// extend offers the frontier every extension of cur by one entry — a child's
// retained state, or one value of an uncovered digit — whose digits the
// caller decoded into cdg: cost ccost, new φ digits flatAdd, compatible with
// the partials whose v is vc (when >= 0) and whose already assigned digits,
// have, equal need. The entry picks one row of each attached edge, sliced
// here once; a partial adds the rows' cells at its C in row order. cur
// ascends in cost and lb, ccost plus the rows' minima summed in the same
// order, is the least any partial can add, so the walk stops at the first
// partial whose cost plus lb is above the frontier's threshold: no later one
// can enter.
func (p *beamPass) extend(ccost float64, flatAdd, need int64, vc int) error {
	cur, have, front := p.cur, p.have, &p.front
	p.erows = grown(p.erows, len(p.rows))
	erows := p.erows
	lb := ccost
	for j, r := range p.rows {
		ed, d := &p.erefs[r.li], p.cdg[r.k]
		erows[j] = ed.vals[d*p.kv : (d+1)*p.kv]
		lb += ed.mins[d]
	}
	for pi := range cur {
		q := &cur[pi]
		if front.cut && q.cost+lb > front.thr.cost {
			break
		}
		p.st.States++
		if p.st.States&cancelCheckMask == 0 {
			if p.stopped() {
				return p.cancelErr()
			}
			if !p.fits(5 * int64(len(cur)+len(front.buf))) {
				return fmt.Errorf("%w: beam frontier at vertex %d exceeds %d entries", ErrOOM, p.v, p.budget)
			}
		}
		if vc >= 0 && int(q.c) != vc || have[pi] != need {
			continue
		}
		add := ccost
		for _, row := range erows {
			add += row[q.c]
		}
		front.push(beamPartial{flat: q.flat + flatAdd, cost: q.cost + add, c: q.c})
	}
	return nil
}

// take makes the frontier's survivors the next cur and empties it.
func (p *beamPass) take() {
	p.cur, p.front.buf = p.front.sorted(), p.cur
	p.pruned = p.pruned || p.front.cut
	p.front.reset(p.k)
}

// keep cuts position i's frontier to its table — grouped by flat keeping the
// min cost (smallest C on ties), the top-W flats by cost, and the guide's
// state — charges it against the budget at 5 units an entry (int64 flat 2,
// float64 cost 2, int32 choice 1) and publishes it. The costs of the tables
// whose last reader i was are freed; flats and choices stay for
// back-substitution.
func (p *beamPass) keep(i int, onTable func(pos int, t beamTable)) error {
	bp := p.bp
	p.front.sort(p.cur, true)
	out := slices.CompactFunc(p.cur, func(a, b beamPartial) bool { return a.flat == b.flat })
	if len(out) > p.width {
		p.pruned = true
		p.front.sort(out, false)
		out = out[:p.width]
		p.front.sort(out, true)
	}

	// Force-retain the guide state so every table — and therefore every
	// pass — contains at least one entry on a known-valid strategy. Its
	// value folds the CHILD's stored values at the child guide flats (which
	// this same rule guarantees exist), so the stored cost is exactly
	// realizable by back-substitution.
	gC := bp.guide[p.v]
	gFlat := bp.flatAt(i, bp.guide)
	gVal := p.m.TLRow(p.v)[gC]
	for _, ed := range p.erefs {
		gVal += ed.vals[bp.guide[ed.other]*p.kv+gC]
	}
	for _, sub := range p.subsets[i] {
		jPos := p.child(sub)
		j, ok := slices.BinarySearch(p.tables[jPos].flats, bp.flatAt(jPos, bp.guide))
		if !ok {
			return fmt.Errorf("core: beam guide state missing from table %d", jPos)
		}
		gVal += p.tables[jPos].costs[j]
	}
	j, ok := slices.BinarySearchFunc(out, gFlat, func(q beamPartial, flat int64) int { return cmp.Compare(q.flat, flat) })
	if !ok {
		out = slices.Insert(out, j, beamPartial{flat: gFlat, cost: gVal, c: int32(gC)})
	} else if gVal < out[j].cost {
		out[j].cost, out[j].c = gVal, int32(gC)
	}
	p.cur = out

	sz := int64(len(out))
	p.st.TotalEntries += sz
	p.st.MaxTable = max(p.st.MaxTable, sz)
	if err := p.charge(5*sz, p.v); err != nil {
		return err
	}
	t := beamTable{flats: make([]int64, sz), costs: make([]float64, sz), choices: make([]int32, sz)}
	for j, q := range out {
		t.flats[j], t.costs[j], t.choices[j] = q.flat, q.cost, q.c
	}
	p.tables[i] = t
	if onTable != nil {
		onTable(i, t)
	}
	for _, j := range p.bp.freeAt[i] {
		p.release(2 * int64(len(p.tables[j].flats)))
		p.tables[j].costs = nil
	}
	p.resetDigits(i)
	return nil
}
