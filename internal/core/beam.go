// Anytime beam solving: a bounded-width sibling of the exact dependent-set
// DP. Where the exact kernel materializes the full K^|D(i)| table per
// position, the beam keeps at most W surviving (φ, C)-states per table,
// joined sparsely from the retained states of the child subsets, so table
// size — and therefore memory and time — is O(W) per position regardless of
// how entangled the graph is. A greedy guide strategy is force-retained in
// every table, so every pass yields a valid strategy; the reported cost is
// the exact cost of that strategy (partial sums along retained paths are
// never approximated), and a sound optimality gap is derived against an
// admissible relaxation lower bound. SolveBeam wraps one pass in a
// progressive-refinement loop that doubles W under the remaining ctx
// deadline and returns the best strategy found plus its gap when time (or
// the memory budget) runs out.
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
	// Width is W, the number of (φ, C)-states retained per DP table. Zero or
	// negative means unbounded, which IS the exact DP — SolveBeam then
	// delegates to the exact kernel and the result is byte-identical to
	// Solve by construction.
	Width int
	// GapTarget controls progressive refinement. > 0: keep doubling W until
	// the tracked gap is at or below the target (or the deadline/budget runs
	// out). 0: refine until the ctx deadline when one is set, otherwise run
	// a single pass. < 0: always run a single pass at Width.
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
	// Exact reports that the returned strategy is provably optimal: either
	// Width was unbounded, or a refinement pass completed without ever
	// truncating a frontier.
	Exact bool
	// Width is the beam width of the pass that produced the returned
	// strategy (0 when unbounded).
	Width int
	// Passes is how many refinement passes ran.
	Passes int
	// Truncated reports that refinement stopped for a non-deterministic
	// reason — the ctx deadline or cancellation, or the memory budget on a
	// later pass — so an identical request with more time could return a
	// better result. Deterministic stops (exactness, gap target reached,
	// single-pass mode) leave it false; caches should not retain truncated
	// results.
	Truncated bool
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

func byCost(p, q beamPartial) int {
	return cmp.Or(cmp.Compare(p.cost, q.cost), cmp.Compare(p.flat, q.flat), cmp.Compare(p.c, q.c))
}

// byFlat is the retained tables' order, (flat, cost, c): the first partial of
// each flat is its cheapest, smallest C on ties, matching the exact kernel's
// strict-< argmin.
func byFlat(p, q beamPartial) int {
	return cmp.Or(cmp.Compare(p.flat, q.flat), byCost(p, q))
}

// beamFrontier keeps the k smallest partials of a stream under less. It
// holds at most 2k of them: reaching 2k it selects the k smallest and from
// then on refuses, with one compare, whatever is not below the k-th. The k
// smallest of a stream under a strict total order are the same whenever it is
// compacted, and a refused partial has k smaller ones before it, so the
// result equals sorting everything and cutting.
type beamFrontier struct {
	buf []beamPartial
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
	selectSmallest(f.buf, f.k)
	f.buf = f.buf[:f.k]
	f.thr, f.cut = f.buf[f.k-1], true
}

// sorted returns the survivors in ascending order; the slice is f's own
// buffer, valid until the next reset.
func (f *beamFrontier) sorted() []beamPartial {
	if len(f.buf) > f.k {
		f.compact()
	}
	slices.SortFunc(f.buf, byCost)
	return f.buf
}

// selectSmallest reorders ps so that ps[k-1] is its k-th smallest under less
// and nothing before it is larger: Hoare quickselect around the middle
// element, handing the remaining range to a sort once 2·log2(n) rounds have
// not narrowed it to a point, so the worst case stays O(n log n).
func selectSmallest(ps []beamPartial, k int) {
	for lo, hi, rounds := 0, len(ps)-1, 2*bits.Len(uint(len(ps))); lo < hi; rounds-- {
		if rounds == 0 {
			slices.SortFunc(ps[lo:hi+1], byCost)
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

// SolveBeam runs the anytime beam DP over the given ordering. With
// Width <= 0 it delegates to the exact kernel (byte-identical to Solve).
// Otherwise it runs bounded-width passes, doubling the width while the
// GapTarget/deadline policy asks for more (see BeamOptions), and returns the
// best strategy found with its tracked gap. Mid-pass cancellation or an
// ErrOOM on a refinement pass returns the best-so-far result; an error is
// returned only when no pass completed at all.
func SolveBeam(ctx context.Context, m *cost.Model, sq *seq.Sequence, opts BeamOptions) (*BeamResult, error) {
	if opts.Width <= 0 {
		res, err := Solve(ctx, m, sq, opts.Options)
		if err != nil {
			return nil, err
		}
		br := &BeamResult{Result: *res, Gap: 0, Exact: true, Width: 0, Passes: 1}
		if opts.OnPass != nil {
			opts.OnPass(1, 0, br.Cost, 0)
		}
		return br, nil
	}
	if m.G.Len() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if len(sq.Order) != m.G.Len() {
		return nil, fmt.Errorf("core: ordering covers %d of %d vertices", len(sq.Order), m.G.Len())
	}
	bp := newBeamPlan(m, sq)
	lb := bp.lowerBound()

	var best *BeamResult
	var totalStates int64
	w := opts.Width
	for pass := 1; ; pass++ {
		t0 := time.Now()
		res, exact, err := bp.pass(ctx, opts.Options, w, beamJoinCap(w), nil)
		if err != nil {
			// Refinement best-effort: a deadline, cancellation, or budget
			// blowup on a LATER pass returns the best strategy already
			// found; only a failing first pass is an error.
			if best != nil && (errors.Is(err, ErrOOM) || ctx.Err() != nil) {
				best.Truncated = true
				break
			}
			return nil, err
		}
		totalStates += res.Stats.States
		if best == nil || res.Cost < best.Cost || exact {
			gap := beamGap(res.Cost, lb)
			if exact {
				gap = 0
			}
			best = &BeamResult{Result: *res, Gap: gap, Exact: exact, Width: w}
		}
		best.Passes = pass
		best.Stats.States = totalStates
		if opts.OnPass != nil {
			opts.OnPass(pass, w, best.Cost, best.Gap)
		}
		if best.Exact || best.Gap == 0 {
			break
		}
		if opts.GapTarget < 0 {
			break // single pass requested
		}
		if opts.GapTarget > 0 && best.Gap <= opts.GapTarget {
			break
		}
		deadline, hasDeadline := ctx.Deadline()
		if opts.GapTarget == 0 && !hasDeadline {
			break // nothing to refine toward
		}
		if ctx.Err() != nil {
			best.Truncated = true
			break
		}
		// The next pass costs at least as much as this one (W doubles):
		// don't start it if it cannot finish before the deadline.
		if hasDeadline && time.Until(deadline) < time.Since(t0) {
			best.Truncated = true
			break
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

// beamScratch is a pass's working memory, allocated once per pass and reused
// across its positions: the sorted partials being extended, the frontier
// collecting their extensions, and the position's and the current join's
// wiring.
type beamScratch struct {
	cur      []beamPartial
	front    beamFrontier
	kd       []int     // radix of each φ digit of the position
	pstride  []int64   // its stride in the flat index
	digitOf  []int     // node → φ digit, -1 when absent
	assigned []bool    // φ digits some generation step has set
	slot     []int     // per child digit: the φ digit, -1 for v itself
	ck       []int     // child radices
	cdg      []int     // the child entry being joined, decoded
	rows     []beamRow // edge rows this step attaches
	have     []int64   // per partial: its assigned digits among slot, as a flat
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
	m, sq, guide := bp.m, bp.sq, bp.guide
	n := m.G.Len()
	budget := opts.maxEntries()
	budgetUnits := 3 * budget
	liveUnits := int64(0)
	done := ctx.Done()
	cancelErr := func() error { return fmt.Errorf("core: beam solve cancelled: %w", context.Cause(ctx)) }
	st := newStats(m, sq)

	// A beam entry is 5 4-byte units (int64 flat = 2, float64 cost = 2, int32
	// choice = 1); costs are freed at the table's last reader, flats+choices
	// stay for back-substitution.
	tables := make([]beamTable, n)

	sc := &beamScratch{digitOf: make([]int, n)}
	front := &sc.front
	front.reset(k)
	for j := range sc.digitOf {
		sc.digitOf[j] = -1
	}
	var erefs []beamEdge
	pruned := false

	for i, v := range sq.Order {
		if done != nil && ctx.Err() != nil {
			return nil, false, cancelErr()
		}
		dep := sq.Dep[i]
		sc.kd, sc.pstride = sc.kd[:0], sc.pstride[:0]
		flatSpace := int64(1)
		for dg, d := range dep {
			kk := int64(m.K(d))
			if flatSpace > (math.MaxInt64/4)/kk {
				return nil, false, fmt.Errorf("core: beam flat index space at vertex %d exceeds int64 (dependent set too entangled)", v)
			}
			sc.kd = append(sc.kd, int(kk))
			sc.pstride = append(sc.pstride, flatSpace)
			sc.digitOf[d] = dg
			flatSpace *= kk
		}

		erefs = erefs[:0]
		for _, ie := range m.Incidence(v) {
			if sq.Pos[ie.Other] <= i {
				continue
			}
			ed := beamEdge{other: ie.Other, dg: sc.digitOf[ie.Other]}
			if ed.dg < 0 {
				return nil, false, fmt.Errorf("core: later neighbour %d of %d missing from D(%d)", ie.Other, v, i)
			}
			if ie.VIsU {
				ed.vals, _ = m.EdgeTableT(ie.E)
				ed.mins = bp.minV[ie.E]
			} else {
				ed.vals, _ = m.EdgeTable(ie.E)
				ed.mins = bp.minU[ie.E]
			}
			erefs = append(erefs, ed)
		}

		kv := m.K(v)
		tlv := m.TLRow(v)
		sc.assigned = grown(sc.assigned, len(dep))
		clear(sc.assigned)

		// attach adds the rows of the edges to digit dg, read through digit k
		// of the entries about to be joined: edge costs attach when their φ
		// digit is first assigned.
		attach := func(dg, k int) {
			for li := range erefs {
				if erefs[li].dg == dg {
					sc.rows = append(sc.rows, beamRow{li, k})
				}
			}
		}
		// extend offers the frontier every extension of cur by one entry — a
		// child's retained state, or one value of an uncovered digit — whose
		// digits the caller decoded into cdg: cost ccost, new φ digits
		// flatAdd, compatible with the partials whose v is vc (when >= 0) and
		// whose already assigned digits, have, equal need. cur ascends in
		// cost and lb, ccost plus the attached rows' minima summed in the
		// candidate's own order, is the least any partial can add, so the
		// walk stops at the first partial whose cost plus lb is above the
		// frontier's threshold: no later one can enter.
		extend := func(ccost float64, flatAdd, need int64, vc int) error {
			lb := ccost
			for _, r := range sc.rows {
				lb += erefs[r.li].mins[sc.cdg[r.k]]
			}
			for pi := range sc.cur {
				p := &sc.cur[pi]
				if front.cut && p.cost+lb > front.thr.cost {
					break
				}
				st.States++
				if st.States&cancelCheckMask == 0 {
					if done != nil && ctx.Err() != nil {
						return cancelErr()
					}
					if liveUnits+5*int64(len(sc.cur)+len(front.buf)) > budgetUnits {
						return fmt.Errorf("%w: beam frontier at vertex %d exceeds %d entries", ErrOOM, v, budget)
					}
				}
				if vc >= 0 && int(p.c) != vc || sc.have[pi] != need {
					continue
				}
				add := ccost
				for _, r := range sc.rows {
					add += erefs[r.li].vals[sc.cdg[r.k]*kv+int(p.c)]
				}
				front.push(beamPartial{flat: p.flat + flatAdd, cost: p.cost + add, c: p.c})
			}
			return nil
		}
		// take makes the frontier's survivors the next cur and empties it.
		take := func() {
			sc.cur, front.buf = front.sorted(), sc.cur
			pruned = pruned || front.cut
			front.reset(k)
		}

		// Seed with every configuration of v at φ-flat 0.
		for c, tl := range tlv {
			front.push(beamPartial{cost: tl, c: int32(c)})
		}
		take()

		// Join each subset's retained frontier. Every member of a child's
		// D(j) is v itself or a φ digit of this position, exactly as in the
		// exact kernel.
		for _, sub := range bp.subsets[i] {
			jPos := sq.Pos[sub[len(sub)-1]]
			sc.slot, sc.ck, sc.rows = sc.slot[:0], sc.ck[:0], sc.rows[:0]
			for kk, d := range sq.Dep[jPos] {
				dg := -1
				if d != v {
					if dg = sc.digitOf[d]; dg < 0 {
						return nil, false, fmt.Errorf("core: D(%d) member %d not in D(%d) ∪ {v(%d)}: ordering's dependent sets are inconsistent", jPos, d, i, i)
					}
					if !sc.assigned[dg] {
						attach(dg, kk)
					}
				}
				sc.slot = append(sc.slot, dg)
				sc.ck = append(sc.ck, m.K(d))
			}
			sc.have = grown(sc.have, len(sc.cur))
			for pi, p := range sc.cur {
				sc.have[pi] = 0
				for _, dg := range sc.slot {
					if dg >= 0 && sc.assigned[dg] {
						sc.have[pi] += p.flat / sc.pstride[dg] % int64(sc.kd[dg]) * sc.pstride[dg]
					}
				}
			}
			sc.cdg = grown(sc.cdg, len(sc.ck))
			child := &tables[jPos]
			for ei, rem := range child.flats {
				flatAdd, need, vc := int64(0), int64(0), -1
				for kk, dg := range sc.slot {
					d := rem % int64(sc.ck[kk])
					rem /= int64(sc.ck[kk])
					sc.cdg[kk] = int(d)
					switch {
					case dg < 0:
						vc = int(d)
					case sc.assigned[dg]:
						need += d * sc.pstride[dg]
					default:
						flatAdd += d * sc.pstride[dg]
					}
				}
				if err := extend(child.costs[ei], flatAdd, need, vc); err != nil {
					return nil, false, err
				}
			}
			for _, dg := range sc.slot {
				if dg >= 0 {
					sc.assigned[dg] = true
				}
			}
			take()
		}

		// Digits no subset covered (edge-only or value-independent
		// attachments): enumerate their values so later parents can match
		// any combination, attaching edge costs where present.
		for dg := range dep {
			if sc.assigned[dg] {
				continue
			}
			sc.rows = sc.rows[:0]
			attach(dg, 0)
			sc.have = grown(sc.have, len(sc.cur))
			clear(sc.have)
			sc.cdg = grown(sc.cdg, 1)
			for d := 0; d < sc.kd[dg]; d++ {
				sc.cdg[0] = d
				if err := extend(0, int64(d)*sc.pstride[dg], 0, -1); err != nil {
					return nil, false, err
				}
			}
			sc.assigned[dg] = true
			take()
		}

		// Finalize: group by flat keeping the min cost (smallest C on ties),
		// then keep the top-W flats by cost.
		slices.SortFunc(sc.cur, byFlat)
		out := slices.CompactFunc(sc.cur, func(p, q beamPartial) bool { return p.flat == q.flat })
		if len(out) > width {
			pruned = true
			slices.SortFunc(out, byCost)
			out = out[:width]
			slices.SortFunc(out, byFlat)
		}

		// Force-retain the guide state so every table — and therefore every
		// pass — contains at least one entry on a known-valid strategy. Its
		// value folds the CHILD's stored values at the child guide flats
		// (which this same rule guarantees exist), so the stored cost is
		// exactly realizable by back-substitution.
		gC := guide[v]
		gFlat := bp.flatAt(i, guide)
		gVal := tlv[gC]
		for _, ed := range erefs {
			gVal += ed.vals[guide[ed.other]*kv+gC]
		}
		for _, sub := range bp.subsets[i] {
			jPos := sq.Pos[sub[len(sub)-1]]
			j, ok := slices.BinarySearch(tables[jPos].flats, bp.flatAt(jPos, guide))
			if !ok {
				return nil, false, fmt.Errorf("core: beam guide state missing from table %d", jPos)
			}
			gVal += tables[jPos].costs[j]
		}
		j, ok := slices.BinarySearchFunc(out, gFlat, func(p beamPartial, flat int64) int { return cmp.Compare(p.flat, flat) })
		if !ok {
			out = slices.Insert(out, j, beamPartial{flat: gFlat, cost: gVal, c: int32(gC)})
		} else if gVal < out[j].cost {
			out[j].cost, out[j].c = gVal, int32(gC)
		}
		sc.cur = out

		// Charge the retained table against the budget and publish it.
		sz := int64(len(out))
		st.TotalEntries += sz
		st.MaxTable = max(st.MaxTable, sz)
		liveUnits += 5 * sz
		if liveUnits > budgetUnits {
			return nil, false, fmt.Errorf("%w: live beam tables at vertex %d exceed %d entries", ErrOOM, v, budget)
		}
		st.PeakLiveEntries = max(st.PeakLiveEntries, (liveUnits+2)/3)
		t := beamTable{flats: make([]int64, sz), costs: make([]float64, sz), choices: make([]int32, sz)}
		for j, p := range out {
			t.flats[j], t.costs[j], t.choices[j] = p.flat, p.cost, p.c
		}
		tables[i] = t
		if onTable != nil {
			onTable(i, t)
		}
		for _, j := range bp.freeAt[i] {
			liveUnits -= 2 * int64(len(tables[j].flats))
			tables[j].costs = nil
		}
		for _, d := range dep {
			sc.digitOf[d] = -1
		}
	}

	// Back-substitution over the sparse tables: the flat is computed from
	// the already-assigned dependents exactly as in the exact kernel, then
	// resolved by binary search. Every entry's children exist by
	// construction (joins only extend retained child states; guide states
	// are force-retained), so the walk cannot dead-end.
	idx := make([]int, n)
	assignedV := make([]bool, n)
	var walk func(pos int) error
	walk = func(pos int) error {
		v := sq.Order[pos]
		for _, d := range sq.Dep[pos] {
			if !assignedV[d] {
				return fmt.Errorf("core: beam back-substitution reached %d before its dependent %d", v, d)
			}
		}
		flat := bp.flatAt(pos, idx)
		j, ok := slices.BinarySearch(tables[pos].flats, flat)
		if !ok {
			return fmt.Errorf("core: beam back-substitution: no retained state at position %d flat %d", pos, flat)
		}
		idx[v] = int(tables[pos].choices[j])
		assignedV[v] = true
		for _, sub := range bp.subsets[pos] {
			if err := walk(sq.Pos[sub[len(sub)-1]]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(n - 1); err != nil {
		return nil, false, err
	}
	if v := slices.Index(assignedV, false); v >= 0 {
		return nil, false, fmt.Errorf("core: beam back-substitution left node %d unassigned (graph not weakly connected?)", v)
	}

	res := &Result{Cost: tables[n-1].costs[0], Idx: idx, Strategy: m.StrategyFromIdx(idx), Seq: sq, Stats: st}
	// The beam's root value is the exact cost of the extracted strategy
	// (child values fold exactly, never estimates) — guard the wiring.
	if ev := m.EvalIdx(idx); math.Abs(ev-res.Cost) > 1e-6*math.Max(1, math.Abs(ev)) {
		return nil, false, fmt.Errorf("core: beam extracted strategy costs %v but retained root value is %v", ev, res.Cost)
	}
	return res, !pruned, nil
}
