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
// and the run's vertex checks, which a later run can take as prev.
type Elimination struct {
	Model          *Model
	KTotal, KAlive int
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
	return &Elimination{Model: d.restrict(), KTotal: d.kTotal, KAlive: d.kAlive, memo: d.memo}, nil
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

	cache map[rowsKey]*deeRows

	views                   []*deeRows
	un, ext, lo, hi, ub, sf []float64
	byHi                    []int32
	dead                    []bool
	mark                    []int32 // rep-dedup stamps, one per configuration index
	stamp                   int32
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
		cache: map[rowsKey]*deeRows{},
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
	for e := range m.edges {
		mag += m.txMax[e]
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
	d.mark = make([]int32, maxK)
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

// rows returns v's incident edge ie as a table with one contiguous row per
// configuration of v over the other end's configurations, its transpose, the
// row stride, and the other end's and v's reps.
func (d *dee) rows(ie IncEdge) (tab, tabT []float64, stride int, rep, orep []int32) {
	m := d.m
	if ie.VIsU {
		return m.tx[ie.E], m.txT[ie.E], m.txKv[ie.E], m.repV[ie.E], m.repU[ie.E]
	}
	return m.txT[ie.E], m.tx[ie.E], m.K(ie.Other), m.repU[ie.E], m.repV[ie.E]
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
			if w := ie.Other; !ie.Self && !queued[w] {
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
	} else {
		d.key = d.checkKey(v)
		var ok bool
		if out, ok = d.memo.checks[string(d.key)]; !ok {
			if out, ok = d.prev[string(d.key)]; !ok {
				out = d.eliminate(v)
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
		switch {
		case ie.Self:
			k = append(k, 2)
		case ie.VIsU:
			k = append(k, 1)
			set(d.alive[ie.Other])
		default:
			k = append(k, 0)
			set(d.alive[ie.Other])
		}
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
// over the margin.
func (d *dee) eliminate(v int) []int32 {
	m := d.m
	own := d.alive[v]
	ka := len(own)
	if ka == 1 {
		return own
	}
	margin := d.margin(v)
	kv := m.K(v)
	d.un = grown(d.un, ka)
	for i, c := range own {
		d.un[i] = m.tl[v][c]
	}
	d.views = d.views[:0]
	for _, ie := range m.inc[v] {
		if ie.Self {
			tab, kv := m.tx[ie.E], m.txKv[ie.E]
			for i, c := range own {
				d.un[i] += tab[int(c)*kv+int(c)]
			}
			continue
		}
		d.views = append(d.views, d.edgeRows(ie))
	}
	views, un := d.views, d.un
	ne := len(views)
	// ext[i·2ne + 2k], ext[i·2ne + 2k+1]: survivor i's extremes on edge k.
	w := 2 * ne
	d.ext = grown(d.ext, ka*w)
	d.lo, d.hi = grown(d.lo, ka), grown(d.hi, ka)
	ext, lo, hi := d.ext, d.lo, d.hi
	for i, c := range own {
		lo[i], hi[i] = un[i], un[i]
		for k, r := range views {
			r.row(c)
			ext[i*w+2*k], ext[i*w+2*k+1] = r.cmin[c], r.cmax[c]
			lo[i] += r.cmin[c]
			hi[i] += r.cmax[c]
		}
	}
	d.byHi = order(d.byHi, hi, ka)
	d.dead = grown(d.dead, ka)
	clear(d.dead)
	d.ub, d.sf = grown(d.ub, ne), grown(d.sf, ne+1)
	ub, sf := d.ub, d.sf
	removed := 0
	for x := ka - 1; x >= 0; x-- {
		i := d.byHi[x]
		ci, xi := int(own[i]), ext[int(i)*w:][:w]
		desmet := true
		for _, j := range d.byHi {
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
			cj, xj := int(own[j]), ext[int(j)*w:][:w]
			acc := un[i] - un[j]
			bound := acc
			for k := range views {
				ub[k] = min(xi[2*k]-xj[2*k], xi[2*k+1]-xj[2*k+1])
				bound += ub[k]
			}
			// Tighten edge by edge with the two witnesses: i's row at j's
			// maximum column and, through the transpose, the row of i's
			// minimum column at j; either stays near the last pair's reads.
			for k, r := range views {
				if bound <= margin {
					break
				}
				wmin := xi[2*k] - r.tabT[int(r.amin[ci])*kv+cj]
				wmax := r.tab[ci*r.stride+int(r.amax[cj])] - xj[2*k+1]
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
			for k, r := range views {
				ri, rj := r.tab[ci*r.stride:][:r.stride], r.tab[cj*r.stride:][:r.stride]
				// The pair fails once this edge's minimum falls below need.
				need := margin - acc - sf[k+1]
				g := math.Inf(1)
				for _, s := range r.cols {
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

// deeRows is one incident edge table as its vertex's check reads it, against
// one survivor set of the other end: tab with one row of stride cells per own
// configuration (tabT its transpose), the other end's survivors kept as
// columns (only the first of each rep: a repeated column changes no
// minimum), and each row's extremes over them and their columns, computed
// when a check first reads the row (amin < 0 until then). orep is the own
// side's reps: a row that repeats an earlier one takes its extremes.
type deeRows struct {
	tab, tabT  []float64
	stride     int
	cols       []int32
	orep       []int32
	cmin, cmax []float64
	amin, amax []int32
}

// edgeRows returns v's incident edge ie against the other end's survivors,
// one entry per (table, orientation, survivor set) and run, shared by every
// check that reads the table that way.
func (d *dee) edgeRows(ie IncEdge) *deeRows {
	tab, tabT, stride, rep, orep := d.rows(ie)
	k := rowsKey{&tab[0], d.setOf[ie.Other]}
	if r, ok := d.cache[k]; ok {
		return r
	}
	r := &deeRows{tab: tab, tabT: tabT, stride: stride, orep: orep}
	d.stamp++
	for _, s := range d.alive[ie.Other] {
		if x := rep[s]; d.mark[x] != d.stamp {
			d.mark[x] = d.stamp
			r.cols = append(r.cols, s)
		}
	}
	nr := len(tab) / stride
	r.cmin, r.cmax = make([]float64, nr), make([]float64, nr)
	r.amin, r.amax = make([]int32, nr), make([]int32, nr)
	for c := range r.amin {
		r.amin[c] = -1
	}
	d.cache[k] = r
	return r
}

// row computes row c's extremes, once.
func (r *deeRows) row(c int32) {
	if r.amin[c] >= 0 {
		return
	}
	if x := r.orep[c]; x != c {
		r.row(x)
		r.cmin[c], r.cmax[c], r.amin[c], r.amax[c] = r.cmin[x], r.cmax[x], r.amin[x], r.amax[x]
		return
	}
	src := r.tab[int(c)*r.stride:][:r.stride]
	lo, hi := src[r.cols[0]], src[r.cols[0]]
	alo, ahi := r.cols[0], r.cols[0]
	for _, s := range r.cols[1:] {
		if x := src[s]; x < lo {
			lo, alo = x, s
		} else if x > hi {
			hi, ahi = x, s
		}
	}
	r.cmin[c], r.cmax[c], r.amin[c], r.amax[c] = lo, hi, alo, ahi
}

type rowsKey struct {
	tab *float64
	set int32
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
// (source table, survivor sets).
func (d *dee) restrict() *Model {
	m := d.m
	em := *m
	n := len(m.cfgs)
	em.cfgs = slices.Clone(m.cfgs)
	em.tl = slices.Clone(m.tl)
	em.tx, em.txT = slices.Clone(m.tx), slices.Clone(m.txT)
	em.txKv = slices.Clone(m.txKv)
	em.repU, em.repV = slices.Clone(m.repU), slices.Clone(m.repV)
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
		src  *float64
		u, v int32
	}
	es := map[eKey]edgeTables{}
	for e, uv := range m.edges {
		u, v := uv[0], uv[1]
		if full(u) && full(v) {
			continue
		}
		au, av := d.alive[u], d.alive[v]
		k := eKey{&m.tx[e][0], d.setOf[u], d.setOf[v]}
		t, ok := es[k]
		if !ok {
			src, kv := m.tx[e], m.txKv[e]
			t.tab = make([]float64, len(au)*len(av))
			t.tabT = make([]float64, len(au)*len(av))
			for i, cu := range au {
				row := src[int(cu)*kv:]
				for j, cv := range av {
					t.tab[i*len(av)+j] = row[cv]
					t.tabT[j*len(au)+i] = row[cv]
				}
			}
			t.repU, t.repV = restrictRep(m.repU[e], au), restrictRep(m.repV[e], av)
			es[k] = t
		}
		em.tx[e], em.txT[e], em.txKv[e] = t.tab, t.tabT, len(av)
		em.repU[e], em.repV[e] = t.repU, t.repV
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

// restrictRep renumbers a side's reps onto its survivors a: the rep of a
// survivor is the first survivor with the same source rep.
func restrictRep(rep []int32, a []int32) []int32 {
	first := make(map[int32]int32, len(a))
	out := make([]int32, len(a))
	for i, c := range a {
		r, ok := first[rep[c]]
		if !ok {
			r = int32(i)
			first[rep[c]] = r
		}
		out[i] = r
	}
	return out
}
