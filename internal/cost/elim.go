package cost

// Dead-end elimination (DESIGN.md "Dead-end elimination"): the exact search
// is a min-sum problem over pairwise costs, the problem protein side-chain
// packing solves, and that field first drops every configuration no optimum
// can use (Desmet et al., Nature 356, 1992; Goldstein, Biophys. J. 66, 1994).
// Configuration c of vertex v goes when some surviving c′ of v satisfies
//
//	TL(c) − TL(c′) + Σ_edges min_s [TX(c,s) − TX(c′,s)] > margin
//
// with s ranging over the edge's other endpoint's surviving configurations:
// then moving v from c to c′ lowers every completion by more than margin.
// The margin covers the rounding of this test and of two float64
// evaluations of the objective (SumErrorBound), so for every DP table entry
// the removed c was never the argmin and never tied, and an eliminated
// model that keeps the survivors in index order keeps every entry's value
// and smallest-index choice: the exact solve over it returns the cost bits
// and the strategy of the solve over the full model. Each removal holds over
// the survivors at its time, so by induction over removals the set of
// optimal strategies never changes.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"pase/internal/bitset"
	"pase/internal/canon"
	"pase/internal/itspace"
)

// SumErrorBound bounds how far apart two float64 evaluations of one sum can
// land, in any order and grouping, when the sum has at most terms terms
// whose absolute values add up to at most magnitude. Each evaluation is
// within γ(terms−1)·magnitude of the exact sum, γ(k) = k·u/(1−k·u) with
// u = 2⁻⁵³ (Higham, Accuracy and Stability of Numerical Algorithms, §4.2),
// so two are within 2·γ(terms−1)·magnitude, which (terms+2)·2⁻⁵²·magnitude
// covers at every term count below 10¹³. The product is rounded on its own
// (float64), so no caller's add fuses with it on any GOARCH.
func SumErrorBound(terms int, magnitude float64) float64 {
	return float64(float64(terms+2) * 0x1p-52 * magnitude)
}

// Elimination is one Eliminate run: the model over the surviving
// configurations, ΣK over the vertices before (KTotal) and after (KAlive),
// the vertex checks the run evaluated rather than looked up (Ran) and the
// block cells they gathered (Cells), the survivors alone, which
// EliminateWith rebuilds Model from (nil past 65,536 distinct survivor
// sets), and the run's vertex checks, which a later run can take as prev.
type Elimination struct {
	Model          *Model
	KTotal, KAlive int
	Ran, Cells     int
	Survivors      *Survivors
	memo           *elimMemo
}

// Eliminate runs Goldstein's criterion to a fixpoint and returns the model
// over the surviving configurations. Survivors keep their index order and
// their Configs, so a strategy the eliminated model materializes is one of
// the full model's, and its tables are shared wherever the source table and
// the survivor sets are the same, as interning shares the full model's. The
// class fingerprints are the source's plus the survivor sets, so two
// eliminated models compare as their tables do. Info stays the full
// model's. ctx is polled between vertex checks.
//
// prev, when non-nil, is an earlier run, such as a delta base's: a vertex
// check whose inputs it already checked takes that check's survivors
// instead of running again. Every check is a function of its inputs, so the
// result is the one a run without prev returns.
func Eliminate(ctx context.Context, m *Model, prev *Elimination) (*Elimination, error) {
	var pm *elimMemo
	if prev != nil {
		pm = prev.memo
	}
	d := newDEE(m, pm)
	if err := d.run(ctx); err != nil {
		return nil, err
	}
	return &Elimination{
		Model: d.restrict(), KTotal: d.kTotal, KAlive: d.kAlive,
		Ran: d.ran, Cells: d.gathered, Survivors: d.survivors(), memo: d.memo,
	}, nil
}

// Checks is e without its model: all that a later run reads of e as prev,
// and so all that a caller keeping e for that alone need retain.
func (e *Elimination) Checks() *Elimination { return &Elimination{memo: e.memo} }

// Survivors is an elimination's survivors, compact: per vertex the id of
// its survivor set, and each distinct set once, as a bitset over the K of
// the vertices that hold it. gptdeep:12 at p=32 keeps 13 sets over 231
// vertices in under 1 KB.
type Survivors struct {
	ids  []uint16 // per vertex: its set
	k    []int32  // per set: the K it is over
	off  []int32  // per set: its first word in bits, then one past the last
	bits []uint64
}

// survivors interns d's survivor sets by content and K.
func (d *dee) survivors() *Survivors {
	type key struct{ set, k int32 }
	s := &Survivors{ids: make([]uint16, len(d.alive))}
	ids := map[key]uint16{}
	var reps []int // per set: a vertex holding it
	words := 0
	for v := range d.alive {
		k := key{d.setOf[v], int32(d.m.K(v))}
		id, ok := ids[k]
		if !ok {
			if len(reps) > math.MaxUint16 {
				return nil
			}
			id = uint16(len(reps))
			ids[k] = id
			reps = append(reps, v)
			words += (int(k.k) + 63) / 64
		}
		s.ids[v] = id
	}
	s.k, s.off, s.bits = make([]int32, len(reps)), make([]int32, len(reps)+1), make([]uint64, words)
	for id, v := range reps {
		k := d.m.K(v)
		s.k[id], s.off[id+1] = int32(k), s.off[id]+int32((k+63)/64)
		set := bitset.Set(s.bits[s.off[id]:s.off[id+1]])
		for _, c := range d.alive[v] {
			set.Add(int(c))
		}
	}
	return s
}

// EliminateWith is Eliminate(ctx, m, prev) for a model whose survivors s
// already holds, such as an earlier run's on a model with the same
// fingerprint: it builds the model over s, as Eliminate does, and runs no
// check, so Ran and Cells are zero, its Survivors is s and the checks it
// hands on are prev's. A nil s, or one whose vertex count or K per vertex
// does not match m's, runs Eliminate instead.
func EliminateWith(ctx context.Context, m *Model, s *Survivors, prev *Elimination) (*Elimination, error) {
	n := m.G.Len()
	if s == nil || len(s.ids) != n {
		return Eliminate(ctx, m, prev)
	}
	for v, id := range s.ids {
		if int(s.k[id]) != m.K(v) {
			return Eliminate(ctx, m, prev)
		}
	}
	d := &dee{m: m, alive: make([][]int32, n), setOf: make([]int32, n)}
	sets := make([][]int32, len(s.k))
	for v, id := range s.ids {
		if sets[id] == nil {
			bitset.Set(s.bits[s.off[id]:s.off[id+1]]).ForEach(func(c int) {
				sets[id] = append(sets[id], int32(c))
			})
		}
		d.alive[v], d.setOf[v] = sets[id], int32(id)
		d.kTotal += m.K(v)
		d.kAlive += len(sets[id])
	}
	el := &Elimination{Model: d.restrict(), KTotal: d.kTotal, KAlive: d.kAlive, Survivors: s}
	if prev != nil {
		el.memo = prev.memo
	}
	return el, nil
}

// elimMemo is one Eliminate run's margin and vertex checks: checks maps a
// check's inputs by content (checkKey) to the survivors it left. The margin
// is part of every check's inputs, and it depends on the run's terms and
// magnitude, so a memo serves only a run with the same two.
type elimMemo struct {
	terms     int
	magnitude float64
	checks    map[string][]int32
}

// dee is one elimination run over a full model: the survivors per vertex
// and the scratch of a vertex check.
type dee struct {
	m     *Model
	alive [][]int32 // per vertex: surviving configurations, ascending
	setOf []int32   // per vertex: the interned id of alive[v]
	sets  map[string]int32
	// memo is this run's margin and checks (no checks on a model built
	// without class fingerprints, whose checks never repeat), prev an
	// earlier run's checks under the same margin.
	memo           *elimMemo
	prev           map[string][]int32
	key, setKB     []byte
	kTotal, kAlive int
	ran, gathered  int // checks run, block cells gathered

	// A vertex check's scratch: its blocks (gather) and what it derives
	// from them; cells and cols back every block of one check.
	views                   []block
	cells                   []float64
	cols, rows, uniq, oc    []int32
	off                     []int
	un, ext, lo, hi, ub, sf []float64
	arg                     []int32
	byHi                    []int32
	dead                    []bool
	// Dedup stamps and the first survivor seen per stamp, one per quotient
	// row or column; ids counts up from 0, the maps of a dense table.
	mark, first, ids []int32
	stamp            int32
}

// newDEE starts a run over m with every configuration alive. The margin's
// magnitude, the summed largest absolute cell of every table the objective
// reads, is rounded up to a power of two: an edit that moves it a little
// leaves it, so prev's checks still serve.
func newDEE(m *Model, prev *elimMemo) *dee {
	n := m.G.Len()
	d := &dee{
		m:     m,
		alive: make([][]int32, n),
		setOf: make([]int32, n),
		sets:  map[string]int32{},
	}
	mag, maxK := 0.0, 0
	for v := range n {
		tlMax := 0.0
		k := m.K(v)
		d.kTotal += k
		maxK = max(maxK, k)
		d.alive[v] = make([]int32, k)
		for c := range d.alive[v] {
			d.alive[v][c] = int32(c)
		}
		d.setOf[v] = d.intern(d.alive[v])
		for _, x := range m.tl[v] {
			tlMax = max(tlMax, math.Abs(x))
		}
		mag += tlMax
	}
	for _, t := range m.txc {
		mag += t.max
	}
	if frac, exp := math.Frexp(mag); frac != 0.5 && mag != 0 {
		mag = math.Ldexp(1, exp)
	}
	d.memo = &elimMemo{terms: n + len(m.edges), magnitude: mag}
	if m.vClassFP != nil {
		d.memo.checks = map[string][]int32{}
		if prev != nil && prev.terms == d.memo.terms && prev.magnitude == mag {
			d.prev = prev.checks
		}
	}
	d.mark, d.first, d.ids = make([]int32, maxK), make([]int32, maxK), iota32(maxK)
	return d
}

// setBytes is a survivor set's content, written into buf.
func setBytes(buf []byte, a []int32) []byte {
	for _, c := range a {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	return buf
}

// intern returns the id of a survivor set, equal for equal sets.
func (d *dee) intern(a []int32) int32 {
	d.setKB = setBytes(d.setKB[:0], a)
	id, ok := d.sets[string(d.setKB)]
	if !ok {
		id = int32(len(d.sets))
		d.sets[string(d.setKB)] = id
	}
	return id
}

// run checks vertices from a FIFO worklist until none loses a
// configuration: first every vertex, then the neighbours of each vertex that
// lost one, since only their criteria read its survivors.
func (d *dee) run(ctx context.Context) error {
	n := d.m.G.Len()
	queue := make([]int, n)
	queued := make([]bool, n)
	for v := range queue {
		queue[v], queued[v] = v, true
	}
	done := ctx.Done()
	for len(queue) > 0 {
		if done != nil {
			select {
			case <-done:
				return fmt.Errorf("cost: elimination cancelled: %w", context.Cause(ctx))
			default:
			}
		}
		v := queue[0]
		queue, queued[v] = queue[1:], false
		if !d.check(v) {
			continue
		}
		for _, ie := range d.m.inc[v] {
			if w := ie.Other; !queued[w] {
				queue, queued[w] = append(queue, w), true
			}
		}
	}
	for _, a := range d.alive {
		d.kAlive += len(a)
	}
	return nil
}

// check runs the criterion on v, or takes the result of an earlier check of
// the same inputs, and reports whether v lost a configuration. The inputs are
// v's class (its TL row) and survivors, and per incident edge its class, the
// side v reads it from and the other end's survivors, all by content: class
// fingerprints name the same tables in any model.
func (d *dee) check(v int) bool {
	var out []int32
	if d.memo.checks == nil {
		out = d.eliminate(v)
		d.ran++
	} else {
		d.key = d.checkKey(v)
		var ok bool
		if out, ok = d.memo.checks[string(d.key)]; !ok {
			if out, ok = d.prev[string(d.key)]; !ok {
				out = d.eliminate(v)
				d.ran++
			}
			d.memo.checks[string(d.key)] = out
		}
	}
	if len(out) == len(d.alive[v]) {
		return false
	}
	d.alive[v], d.setOf[v] = out, d.intern(out)
	return true
}

// checkKey writes v's check inputs into d.key.
func (d *dee) checkKey(v int) []byte {
	m := d.m
	k := append(d.key[:0], m.vClassFP[v][:]...)
	set := func(a []int32) {
		k = binary.AppendUvarint(k, uint64(len(a)))
		k = setBytes(k, a)
	}
	set(d.alive[v])
	for _, ie := range m.inc[v] {
		k = append(k, m.eClassFP[ie.E][:]...)
		if ie.VIsU {
			k = append(k, 1)
		} else {
			k = append(k, 0)
		}
		set(d.alive[ie.Other])
	}
	return k
}

// margin is v's: it covers the rounding of two evaluations of the objective
// (the run's terms, at most its magnitude in absolute sum; SumErrorBound) and
// of the criterion's own sum of v's incident tables' differences, two terms
// per incident edge and the TL row's.
func (d *dee) margin(v int) float64 {
	return SumErrorBound(d.memo.terms+2*len(d.m.inc[v])+2, d.memo.magnitude)
}

// eliminate returns v's survivors after one pass of the criterion over them:
// each own configuration i, by descending worst case, against every live
// c′ = j by ascending worst case hi[j], until one removes it. G(i, j), the
// criterion's left side, is at most hi[i] − hi[j] (every edge read at j's
// maximum), at most lo[i] − lo[j] (at i's minimum), and at most the sum over
// edges of the smaller of those two per edge and of the differences at two
// witness columns, i's minimum and j's maximum. A pair none of these lets
// over the margin is refused without its row loop, one Desmet's
// lo[i] − hi[j] already puts over it is accepted without, and a row loop
// stops once the witnesses of the edges not yet read cannot lift the sum
// over the margin. Every read is of v's blocks (gather).
func (d *dee) eliminate(v int) []int32 {
	m := d.m
	own := d.alive[v]
	ka := len(own)
	if ka == 1 {
		return own
	}
	margin := d.margin(v)
	d.un = grown(d.un, ka)
	for i, c := range own {
		d.un[i] = m.tl[v][c]
	}
	d.gather(v, own)
	views, un, ext, arg := d.views, d.un, d.ext, d.arg
	ne := len(views)
	w := 2 * ne
	d.lo, d.hi = grown(d.lo, ka), grown(d.hi, ka)
	lo, hi := d.lo, d.hi
	for i := range own {
		lo[i], hi[i] = un[i], un[i]
		for k := range ne {
			lo[i] += ext[i*w+2*k]
			hi[i] += ext[i*w+2*k+1]
		}
	}
	d.byHi = order(d.byHi, hi, ka)
	d.dead = grown(d.dead, ka)
	clear(d.dead)
	d.ub, d.sf = grown(d.ub, ne), grown(d.sf, ne+1)
	ub, sf := d.ub, d.sf
	removed := 0
	for x := ka - 1; x >= 0; x-- {
		i := int(d.byHi[x])
		xi, ai := ext[i*w:][:w], arg[i*w:][:w]
		desmet := true
		for _, j32 := range d.byHi {
			j := int(j32)
			if hi[i]-hi[j] <= margin {
				break // byHi is ascending: no later j can pass
			}
			if j == i || d.dead[j] {
				continue
			}
			// Only the first live j, the least worst case, can pass Desmet.
			if desmet && lo[i]-hi[j] > margin {
				d.dead[i] = true
				break
			}
			desmet = false
			if lo[i]-lo[j] <= margin {
				continue
			}
			xj, aj := ext[j*w:][:w], arg[j*w:][:w]
			acc := un[i] - un[j]
			bound := acc
			for k := range views {
				ub[k] = min(xi[2*k]-xj[2*k], xi[2*k+1]-xj[2*k+1])
				bound += ub[k]
			}
			// Tighten edge by edge with the two witnesses: j's row at i's
			// minimum column and i's row at j's maximum column.
			for k := range views {
				b := &views[k]
				if bound <= margin {
					break
				}
				wmin := xi[2*k] - b.cells[j*b.nc+int(ai[2*k])]
				wmax := b.cells[i*b.nc+int(aj[2*k+1])] - xj[2*k+1]
				if x := min(wmin, wmax); x < ub[k] {
					bound -= ub[k] - x
					ub[k] = x
				}
			}
			if bound <= margin {
				continue
			}
			sf[ne] = 0
			for k := ne - 1; k >= 0; k-- {
				sf[k] = sf[k+1] + ub[k]
			}
			ok := true
			for k := range views {
				b := &views[k]
				ri, rj := b.cells[i*b.nc:][:b.nc], b.cells[j*b.nc:][:b.nc]
				// The pair fails once this edge's minimum falls below need.
				need := margin - acc - sf[k+1]
				g := math.Inf(1)
				for s := range ri {
					if y := ri[s] - rj[s]; y < g {
						if g = y; g < need {
							break
						}
					}
				}
				if g < need {
					ok = false
					break
				}
				acc += g
			}
			if ok && acc > margin {
				d.dead[i] = true
				break
			}
		}
		if d.dead[i] {
			removed++
		}
	}
	if removed == 0 {
		return own
	}
	out := make([]int32, 0, ka-removed)
	for i, c := range own {
		if !d.dead[i] {
			out = append(out, c)
		}
	}
	return out
}

// block is one incident edge table as v's check reads it: one row per
// survivor of v and one column per distinct surviving quotient vector of the
// other end (cols, the first survivor with each: a repeated column changes
// no minimum), cells[i·nc+j] the cost of v's i-th survivor against cols[j]
// in the edge's orientation.
type block struct {
	cells []float64
	nc    int
	cols  []int32
}

// gather builds d.views: v's blocks over its survivors own, one per incident
// edge, in incidence order, in the check's scratch, and each row's extremes
// on each block: ext[i·2ne + 2k] and ext[i·2ne + 2k+1] are survivor i's
// least and largest cell on block k, arg the first block column holding
// each. A block reads the stored quotient in either orientation, so a check
// builds no view, and it holds only the cells the check can read.
func (d *dee) gather(v int, own []int32) {
	m := d.m
	ka := len(own)
	d.views, d.cols = d.views[:0], d.cols[:0]
	size := 0
	for _, ie := range m.inc[v] {
		rep, colOf := m.txc[ie.E].maps(d.ids)
		if ie.VIsU {
			rep = colOf
		}
		n := len(d.cols)
		d.stamp++
		for _, s := range d.alive[ie.Other] {
			if x := rep[s]; d.mark[x] != d.stamp {
				d.mark[x] = d.stamp
				d.cols = append(d.cols, s)
			}
		}
		d.views = append(d.views, block{nc: len(d.cols) - n})
		size += ka * (len(d.cols) - n)
	}
	w := 2 * len(d.views)
	d.gathered += size
	d.cells, d.rows = grown(d.cells, size), grown(d.rows, ka)
	d.ext, d.arg = grown(d.ext, ka*w), grown(d.arg, ka*w)
	cells, cols := d.cells, d.cols
	k := 0
	for _, ie := range m.inc[v] {
		b := &d.views[k]
		b.cells, cells = cells[:ka*b.nc], cells[ka*b.nc:]
		b.cols, cols = cols[:b.nc], cols[b.nc:]
		d.fill(b, ie, own, d.ext[2*k:], d.arg[2*k:], w)
		k++
	}
}

// fill writes b's cells from edge ie's quotient and each row's extremes
// into ext[i·w], ext[i·w+1] and arg likewise. A row whose survivor shares
// an earlier one's quotient vector copies that row and its extremes; every
// other row is read from the quotient, a row at a time when v is the
// producer and a quotient row (one column of b) at a time when it is the
// consumer. The extremes scan each row's cells in column order, so ties go
// to the first column.
func (d *dee) fill(b *block, ie IncEdge, own []int32, ext []float64, arg []int32, w int) {
	t, nc := d.m.txc[ie.E], b.nc
	rowOf, colOf := t.maps(d.ids)
	orep := colOf
	if ie.VIsU {
		orep = rowOf
	}
	// rows[i] is the first survivor with survivor i's quotient vector, uniq
	// those that are their own.
	d.uniq = d.uniq[:0]
	d.stamp++
	for i, c := range own {
		x := orep[c]
		if d.mark[x] != d.stamp {
			d.mark[x], d.first[x] = d.stamp, int32(i)
			d.uniq = append(d.uniq, int32(i))
		}
		d.rows[i] = d.first[x]
	}
	if ie.VIsU {
		for _, i := range d.uniq {
			src, dst := t.q[int(rowOf[own[i]])*t.nc:][:t.nc], b.cells[int(i)*nc:][:nc]
			for j, s := range b.cols {
				dst[j] = src[colOf[s]]
			}
		}
	} else {
		// A quotient row per column: the rows' quotient columns and cell
		// offsets first, so the inner loop reads one quotient row.
		d.oc, d.off = d.oc[:0], d.off[:0]
		for _, i := range d.uniq {
			d.oc, d.off = append(d.oc, colOf[own[i]]), append(d.off, int(i)*nc)
		}
		for j, s := range b.cols {
			src := t.q[int(rowOf[s])*t.nc:][:t.nc]
			for u, c := range d.oc {
				b.cells[d.off[u]+j] = src[c]
			}
		}
	}
	for _, i := range d.uniq {
		row := b.cells[int(i)*nc:][:nc]
		lo, hi := row[0], row[0]
		var alo, ahi int32
		for j := 1; j < len(row); j++ {
			if x := row[j]; x < lo {
				lo, alo = x, int32(j)
			} else if x > hi {
				hi, ahi = x, int32(j)
			}
		}
		x := int(i) * w
		ext[x], ext[x+1], arg[x], arg[x+1] = lo, hi, alo, ahi
	}
	for i, r := range d.rows[:len(own)] {
		if r := int(r); r != i {
			copy(b.cells[i*nc:][:nc], b.cells[r*nc:][:nc])
			x, y := i*w, r*w
			ext[x], ext[x+1], arg[x], arg[x+1] = ext[y], ext[y+1], arg[y], arg[y+1]
		}
	}
}

// order returns 0..k-1 sorted by key ascending, ties by index.
func order(buf []int32, key []float64, k int) []int32 {
	buf = grown(buf, k)
	for i := range buf {
		buf[i] = int32(i)
	}
	slices.SortFunc(buf, func(a, b int32) int {
		if key[a] != key[b] {
			if key[a] < key[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	return buf
}

func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// restrict builds the model over the survivors. A vertex or edge that lost
// nothing keeps its tables; the others get restricted copies, one per
// (source table, survivor sets), stored dense, so the DP and the beam read
// them with no expansion.
func (d *dee) restrict() *Model {
	m := d.m
	em := *m
	n := len(m.cfgs)
	em.cfgs = slices.Clone(m.cfgs)
	em.tl = slices.Clone(m.tl)
	em.txc = slices.Clone(m.txc)
	full := func(v int) bool { return len(d.alive[v]) == len(m.cfgs[v]) }

	type vKey struct {
		src *float64
		set int32
	}
	type vTabs struct {
		tl   []float64
		cfgs []itspace.Config
	}
	vs := map[vKey]vTabs{}
	for v := range n {
		if full(v) {
			continue
		}
		k := vKey{&m.tl[v][0], d.setOf[v]}
		t, ok := vs[k]
		if !ok {
			t = vTabs{pick(m.tl[v], d.alive[v]), pick(m.cfgs[v], d.alive[v])}
			vs[k] = t
		}
		em.tl[v], em.cfgs[v] = t.tl, t.cfgs
	}

	type eKey struct {
		src  *edgeTables
		u, v int32
	}
	es := map[eKey]*edgeTables{}
	for e, uv := range m.edges {
		u, v := uv[0], uv[1]
		if full(u) && full(v) {
			continue
		}
		au, av := d.alive[u], d.alive[v]
		src := m.txc[e]
		k := eKey{src, d.setOf[u], d.setOf[v]}
		t, ok := es[k]
		if !ok {
			// max stays the source's: at least the restricted table's largest
			// cell, and the margin of a later run reads no more.
			t = &edgeTables{q: src.denseOver(au, av), nc: len(av), ku: len(au), kv: len(av), max: src.max}
			es[k] = t
		}
		em.txc[e] = t
	}

	if m.vClassFP != nil {
		w := canon.NewRecorder()
		type fpKey struct {
			fp   canon.Fingerprint
			u, v int32
		}
		fps := map[fpKey]canon.Fingerprint{}
		classFP := func(fp canon.Fingerprint, sets ...int) canon.Fingerprint {
			k := fpKey{fp: fp, u: d.setOf[sets[0]], v: -1}
			if len(sets) == 2 {
				k.v = d.setOf[sets[1]]
			}
			out, ok := fps[k]
			if !ok {
				w.Truncate(0)
				w.Label("cost.elim-class/v1")
				w.FP(fp)
				for _, x := range sets {
					w.Len(len(d.alive[x]))
					for _, c := range d.alive[x] {
						w.I64(int64(c))
					}
				}
				out = w.Sum()
				fps[k] = out
			}
			return out
		}
		em.vClassFP = make([]canon.Fingerprint, n)
		for v := range n {
			em.vClassFP[v] = classFP(m.vClassFP[v], v)
		}
		em.eClassFP = make([]canon.Fingerprint, len(m.edges))
		for e, uv := range m.edges {
			em.eClassFP[e] = classFP(m.eClassFP[e], uv[0], uv[1])
		}
	}
	return &em
}

// pick returns s at the indices idx, in their order.
func pick[T any](s []T, idx []int32) []T {
	out := make([]T, len(idx))
	for i, c := range idx {
		out[i] = s[c]
	}
	return out
}
