package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/seq"
)

// scanShape is what the naive reference saw at one vertex: how many rows the
// fastest stepping digit moves and how many it does not, and, per digit of
// D(i), its configuration count, the number of rows that read it and the
// number of classes its values fall into — two values are in one class when
// no row that reads the digit returns a different bit pattern under them, for
// any setting of the row's other digits and any configuration of the vertex.
type scanShape struct {
	fast, slow       int
	k, rows, classes []int
	// wide: some row reads two or more digits, one of which has fewer classes
	// than configurations.
	wide bool
	// space is the vertex's share of Stats.States, Π classes · kv, and
	// stored the length of its quotient table, Π classes.
	space, stored int64
}

// merged reports whether digit d of the shape has rows and values that share
// a class; partial, whether it also keeps more than one class.
func (sh scanShape) merged(d int) bool  { return sh.rows[d] > 0 && sh.classes[d] < sh.k[d] }
func (sh scanShape) partial(d int) bool { return sh.merged(d) && sh.classes[d] > 1 }

// naiveTables evaluates recurrence (4) by definition — one map-free but
// stride-free, odometer-free, bound-free, class-free evaluation per
// (position, φ, c), every candidate in index order with a strict running
// minimum — in the kernel's documented summation order:
//
//	table[φ] = Σ cells + min_c ((tl[c] + slow rows in row order) + fast rows in row order)
//
// where rows are the TX rows of v's later neighbours in incidence order, then
// the tables of the subsets containing v in subset order, cells are the
// subsets without v, and a row is fast when it reads the first digit of D(i)
// that has more than one configuration and is read by any row.
func naiveTables(m *cost.Model, sq *seq.Sequence) (tbl [][]float64, choice [][]int32, shapes []scanShape) {
	g := m.G
	n := g.Len()
	children := seq.Children(g, sq)
	tbl = make([][]float64, n)
	choice = make([][]int32, n)
	shapes = make([]scanShape, n)
	cfg := make([]int, n) // configuration of v and of every member of D(i)
	lookup := func(j int) float64 {
		flat, stride := 0, 1
		for _, d := range sq.Dep[j] { // first member fastest
			flat += cfg[d] * stride
			stride *= m.K(d)
		}
		return tbl[j][flat]
	}
	type row struct {
		reads []int // members of D(i) the row's value depends on
		at    func() float64
	}
	for i, v := range sq.Order {
		dep := sq.Dep[i]
		var rows []row
		var cells []int
		for _, ie := range m.Incidence(v) {
			if sq.Pos[ie.Other] <= i {
				continue
			}
			rows = append(rows, row{reads: []int{ie.Other}, at: func() float64 {
				if ie.VIsU {
					return m.EdgeCost(ie.E, cfg[v], cfg[ie.Other])
				}
				return m.EdgeCost(ie.E, cfg[ie.Other], cfg[v])
			}})
		}
		for _, j := range children[i] {
			if !slices.Contains(sq.Dep[j], v) {
				cells = append(cells, j)
				continue
			}
			var reads []int
			for _, d := range sq.Dep[j] {
				if d != v {
					reads = append(reads, d)
				}
			}
			rows = append(rows, row{reads: reads, at: func() float64 { return lookup(j) }})
		}
		fastest := -1
		for _, d := range dep {
			if m.K(d) > 1 && slices.ContainsFunc(rows, func(r row) bool { return slices.Contains(r.reads, d) }) {
				fastest = d
				break
			}
		}
		var fast, slow []row
		for _, r := range rows {
			if fastest >= 0 && slices.Contains(r.reads, fastest) {
				fast = append(fast, r)
			} else {
				slow = append(slow, r)
			}
		}
		kv := m.K(v)
		size := 1
		for _, d := range dep {
			size *= m.K(d)
		}

		// Classes by definition: the signature of a value is every bit pattern
		// any row that reads the digit can return under it.
		sh := scanShape{fast: len(fast), slow: len(slow)}
		quotient := 1
		for _, d := range dep {
			var sigs [][]uint64
			nrows := 0
			for a := 0; a < m.K(d); a++ {
				var sig []uint64
				nrows = 0
				for _, r := range rows {
					if !slices.Contains(r.reads, d) {
						continue
					}
					nrows++
					var settings func(k int)
					settings = func(k int) {
						if k == len(r.reads) {
							for c := 0; c < kv; c++ {
								cfg[v] = c
								sig = append(sig, math.Float64bits(r.at()))
							}
							return
						}
						if r.reads[k] == d {
							cfg[d] = a
							settings(k + 1)
							return
						}
						for x := 0; x < m.K(r.reads[k]); x++ {
							cfg[r.reads[k]] = x
							settings(k + 1)
						}
					}
					settings(0)
				}
				if !slices.ContainsFunc(sigs, func(o []uint64) bool { return slices.Equal(o, sig) }) {
					sigs = append(sigs, sig)
				}
			}
			sh.k = append(sh.k, m.K(d))
			sh.rows = append(sh.rows, nrows)
			sh.classes = append(sh.classes, len(sigs))
			quotient *= len(sigs)
		}
		for _, r := range rows {
			if len(r.reads) >= 2 && slices.ContainsFunc(r.reads, func(d int) bool { return sh.merged(slices.Index(dep, d)) }) {
				sh.wide = true
			}
		}
		sh.stored = int64(quotient)
		sh.space = sh.stored * int64(kv)
		shapes[i] = sh

		tbl[i] = make([]float64, size)
		choice[i] = make([]int32, size)
		for flat := 0; flat < size; flat++ {
			rem := flat
			for _, d := range dep {
				cfg[d] = rem % m.K(d)
				rem /= m.K(d)
			}
			best, bestC := math.Inf(1), int32(0)
			for c := 0; c < kv; c++ {
				cfg[v] = c
				cst := m.TLRow(v)[c]
				for _, r := range slow {
					cst += r.at()
				}
				for _, r := range fast {
					cst += r.at()
				}
				if cst < best {
					best, bestC = cst, int32(c)
				}
			}
			cbase := 0.0
			for _, j := range cells {
				cbase += lookup(j)
			}
			tbl[i][flat] = cbase + best
			choice[i][flat] = bestC
		}
	}
	return tbl, choice, shapes
}

// adversarialModel builds a per-occurrence (uninterned) model over
// a random layer graph with configuration counts from 1 up, then overwrites
// its cost tables in place with the inputs a scan could get wrong: constant
// rows, all-zero TX tables, costs from {0, 1, 2} (minima
// duplicated at several indices, every sum exact), the same with +Inf
// entries, and the cost model's own values left alone.
func adversarialModel(t *testing.T, rng *rand.Rand, n, p int) *cost.Model {
	t.Helper()
	return adversarialCosts(t, rng, adversarialGraph(rng, n), p)
}

// adversarialGraph is adversarialModel's random layer graph.
func adversarialGraph(rng *rand.Rand, n int) *graph.Graph {
	g := randomLayerGraph(rng, n, []int64{1, 2, 4, 16})
	// A few extra skip edges: triangles are what give a vertex two rows on
	// its fastest digit (a TX row and a child table both reading it).
	for k := rng.Intn(3); k > 0; k-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a > b {
			a, b = b, a
		}
		if a != b && !slices.Contains(g.In(b), a) {
			g.Nodes[b].Inputs = append(g.Nodes[b].Inputs, graph.TensorRef{Map: []int{0, 2}})
			g.AddEdge(g.Nodes[a], g.Nodes[b])
		}
	}
	return g
}

// adversarialCosts is adversarialModel over the graph g.
func adversarialCosts(t *testing.T, rng *rand.Rand, g *graph.Graph, p int) *cost.Model {
	t.Helper()
	n := g.Len()
	m, err := cost.NewModelWith(context.Background(), g, machine.Uniform(p, 1e12, 1e10), itspace.EnumPolicy{},
		cost.BuildOptions{DisableInterning: true})
	if err != nil {
		t.Fatal(err)
	}
	draw := func(mode int) float64 {
		switch mode {
		case 1:
			return 3
		case 2:
			return 0
		case 3:
			return float64(rng.Intn(3))
		default:
			if rng.Intn(4) == 0 {
				return math.Inf(1)
			}
			return float64(rng.Intn(3))
		}
	}
	for v := 0; v < n; v++ {
		if mode := rng.Intn(5); mode > 0 {
			row := m.TLRow(v)
			for c := range row {
				row[c] = draw(mode)
			}
		}
	}
	for e := range m.Edges() {
		mode := rng.Intn(5)
		if mode == 0 {
			continue
		}
		vals, kv := m.EdgeTable(e)
		valsT, ku := m.EdgeTableT(e)
		for cu := 0; cu < ku; cu++ {
			for cv := 0; cv < kv; cv++ {
				x := draw(mode)
				vals[cu*kv+cv] = x
				valsT[cv*ku+cu] = x
			}
		}
	}
	return m
}

// injectClasses overwrites whole rows (configurations of u) and columns (of v)
// of a model's TX tables with copies of earlier ones, so that values of a φ
// digit become indistinguishable to the rows that read it — in the TX rows
// themselves and in the child tables built from them: about half of a side's
// configurations copied, or every one (a digit with a single class), or half
// copied and some copies then broken in one bit — the next float up, or −0 for
// +0 — which must keep them apart.
func injectClasses(rng *rand.Rand, m *cost.Model) {
	for e := range m.Edges() {
		vals, kv := m.EdgeTable(e)
		valsT, ku := m.EdgeTableT(e)
		// Configuration a of the side (0: u, 1: v) against j of the other.
		get := func(side, a, j int) float64 {
			if side == 0 {
				return vals[a*kv+j]
			}
			return vals[j*kv+a]
		}
		set := func(side, a, j int, x float64) {
			cu, cv := a, j
			if side == 1 {
				cu, cv = j, a
			}
			vals[cu*kv+cv], valsT[cv*ku+cu] = x, x
		}
		for side, n := range []int{ku, kv} {
			width := kv + ku - n
			how := rng.Intn(4) // 0 leaves the side alone
			for a := 1; a < n && how > 0; a++ {
				if how != 2 && rng.Intn(2) == 0 {
					continue
				}
				from := 0
				if how != 2 {
					from = rng.Intn(a)
				}
				for j := 0; j < width; j++ {
					set(side, a, j, get(side, from, j))
				}
				if how == 3 && rng.Intn(2) == 0 {
					j := rng.Intn(width)
					x := get(side, a, j)
					if x == 0 {
						set(side, a, j, math.Copysign(0, -1))
					} else {
						set(side, a, j, math.Nextafter(x, math.Inf(1)))
					}
				}
			}
		}
	}
}

func paperModel(t *testing.T, name string, p int) *cost.Model {
	t.Helper()
	bm, err := models.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cost.NewModel(bm.Build(bm.Batch), machine.GTX1080Ti(p), bm.Policy(p))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// forceChunks makes every fill of at least threshold entries a chunked one
// with chunks as small as minChunk, for the rest of the test, so chunk
// boundaries land inside the fastest digit's runs.
func forceChunks(t *testing.T, threshold, minChunk int64) {
	t.Helper()
	pt, mc := parallelThreshold, minChunkEntries
	parallelThreshold, minChunkEntries = threshold, minChunk
	t.Cleanup(func() { parallelThreshold, minChunkEntries = pt, mc })
}

// collideRowHashes makes every row hash of the class detection collide for
// the rest of the test, leaving its exact compare to tell values apart.
func collideRowHashes(t *testing.T) {
	t.Helper()
	mask := classHashMask
	classHashMask = 0
	t.Cleanup(func() { classHashMask = mask })
}

// expand rebuilds position i's full-size cost and choice tables — Π K entries,
// first digit fastest — from the quotient the snapshot holds, by its own
// arithmetic rather than the solver's.
func (s *Snapshot) expand(i int) (tbl []float64, choice []int32) {
	q := s.tbl[i]
	size := 1
	for d := range q.dims {
		size *= q.k(d)
	}
	tbl, choice = make([]float64, size), make([]int32, size)
	for flat := range tbl {
		rem, at, stride := flat, 0, 1
		for d, classes := range q.dims {
			class := rem % q.k(d)
			if q.classOf[d] != nil {
				class = int(q.classOf[d][class])
			}
			rem /= q.k(d)
			at += class * stride
			stride *= classes
		}
		tbl[flat], choice[flat] = q.cost[at], q.choice[at]
	}
	return tbl, choice
}

// requireSameTables compares every expanded table of the snapshot with the
// full-size reference.
func requireSameTables(t *testing.T, label string, snap *Snapshot, tbl [][]float64, choice [][]int32) {
	t.Helper()
	for i := range tbl {
		gotT, gotC := snap.expand(i)
		if !slices.Equal(gotT, tbl[i]) {
			t.Fatalf("%s: cost table at position %d differs:\n got %v\nwant %v", label, i, gotT, tbl[i])
		}
		if !slices.Equal(gotC, choice[i]) {
			t.Fatalf("%s: choice table at position %d differs:\n got %v\nwant %v", label, i, gotC, choice[i])
		}
	}
}

// requireSameSnapshots compares two snapshots table for table, both expanded.
func requireSameSnapshots(t *testing.T, label string, got, want *Snapshot) {
	t.Helper()
	tbl, choice := make([][]float64, len(want.tbl)), make([][]int32, len(want.tbl))
	for i := range want.tbl {
		tbl[i], choice[i] = want.expand(i)
	}
	requireSameTables(t, label, got, tbl, choice)
}

// requireStoredSizes requires every table of the snapshot to be stored at the
// length the definitional classes give: Π classes entries, no Π K copy.
func requireStoredSizes(t *testing.T, label string, snap *Snapshot, shapes []scanShape) {
	t.Helper()
	for i, sh := range shapes {
		if q := snap.tbl[i]; int64(len(q.cost)) != sh.stored || int64(len(q.choice)) != sh.stored {
			t.Fatalf("%s: position %d stores %d costs and %d choices, the definitional classes give %d",
				label, i, len(q.cost), len(q.choice), sh.stored)
		}
	}
}

// The scan against the definition: on adversarial tables, under GENERATESEQ
// and random orderings, every DP table and every choice must equal the naive
// linear evaluation of the same summation order, the optimum must equal brute
// force, States must be the scan space the definitional classes give — a
// class too few or too many moves it — and tables and state counts must
// repeat at every worker count, at a forced tiny chunk size and with every row
// hash colliding; every table is stored at Π classes entries; and the budget
// admits the solve exactly down to the reported peak. The second half of the
// trials has classes injected into its TX tables.
func TestPrunedScanMatchesNaiveOnAdversarialTables(t *testing.T) {
	const trials = 480
	var noSlow, twoFast, withSlow, bruteForced int
	var fastPartial, slowPartial, wide, oneClass, fastOneClass, k1 int
	var states int64
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(5200 + trial)))
		n := 3 + rng.Intn(5)
		m := adversarialModel(t, rng, n, []int{2, 4, 8}[trial%3])
		if trial >= trials/2 {
			injectClasses(rng, m)
		}
		sq := seq.Generate(m.G)
		if trial%2 == 1 {
			sq = seq.FromOrder(m.G, rng.Perm(n))
		}
		wantT, wantC, shapes := naiveTables(m, sq)
		wantSpace := int64(0)
		for _, sh := range shapes {
			switch {
			case sh.fast >= 2:
				twoFast++
			case sh.slow == 0:
				noSlow++
			default:
				withSlow++
			}
			wantSpace += sh.space
			fastest := slices.IndexFunc(sh.k, func(k int) bool { return k > 1 })
			for d := range sh.k {
				switch {
				case sh.k[d] == 1:
					k1++
				case sh.partial(d) && d == fastest:
					fastPartial++
				case sh.partial(d):
					slowPartial++
				case sh.merged(d) && d == fastest && slices.ContainsFunc(sh.classes[d+1:], func(c int) bool { return c > 1 }):
					fastOneClass++ // never steps, yet its rows stay the fast ones
				case sh.merged(d):
					oneClass++
				}
			}
			if sh.wide {
				wide++
			}
		}

		res, snap, err := SolveRetain(context.Background(), m, sq, Options{Workers: 1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		label := fmt.Sprintf("trial %d", trial)
		requireSameTables(t, label, snap, wantT, wantC)
		requireStoredSizes(t, label, snap, shapes)
		if res.Stats.States != wantSpace {
			t.Fatalf("%s: %d states evaluated; the definitional classes give a scan space of %d",
				label, res.Stats.States, wantSpace)
		}
		states += res.Stats.States

		// Brute force is exponential (and slow under -race): it runs where
		// the strategy space is small, which is most trials.
		strategies := 1
		for v := 0; v < n; v++ {
			strategies *= m.K(v)
		}
		if strategies <= 20000 {
			bruteForced++
			bf, err := bruteForce(m)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != bf.Cost && math.Abs(res.Cost-bf.Cost) > 1e-9*math.Abs(bf.Cost) {
				t.Fatalf("%s: DP optimum %v, brute force %v", label, res.Cost, bf.Cost)
			}
		}

		check := func(label string, opts Options) *Result {
			got, gotSnap, err := SolveRetain(context.Background(), m, sq, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameTables(t, label, gotSnap, wantT, wantC)
			requireSameResult(t, label, got, res)
			return got
		}
		checkStates := func(label string, opts Options) {
			if got := check(label, opts); got.Stats.States != res.Stats.States {
				t.Fatalf("%s: states %d, serial %d", label, got.Stats.States, res.Stats.States)
			}
		}
		t.Run(label, func(t *testing.T) {
			forceChunks(t, 2, 3)
			for _, workers := range []int{2, 4} {
				checkStates(fmt.Sprintf("%s tiny chunks workers %d", label, workers), Options{Workers: workers})
			}
			collideRowHashes(t)
			checkStates(label+" colliding hashes", Options{Workers: 2})
		})

		// The reported peak is the budget's edge: there the same fill runs, one
		// entry below the solve fails.
		peak := res.Stats.PeakLiveEntries
		checkStates(fmt.Sprintf("%s budget %d", label, peak), Options{Workers: 1, MaxTableEntries: peak})
		if _, err := Solve(context.Background(), m, sq, Options{Workers: 1, MaxTableEntries: peak - 1}); !errors.Is(err, ErrOOM) {
			t.Fatalf("%s: budget %d under a peak of %d: %v, want ErrOOM", label, peak-1, peak, err)
		}
	}
	if noSlow == 0 || twoFast == 0 || withSlow == 0 {
		t.Errorf("shape coverage: %d vertices without slow rows, %d with two fast rows, %d with slow rows — want all > 0",
			noSlow, twoFast, withSlow)
	}
	if fastPartial == 0 || slowPartial == 0 || wide == 0 || oneClass == 0 || fastOneClass == 0 || k1 == 0 {
		t.Errorf("class coverage: digits with several classes %d fast / %d slower, %d two-digit rows over merged values, "+
			"%d one-class digits, %d of them the fast digit under a stepping slower one, %d K=1 digits — want all > 0",
			fastPartial, slowPartial, wide, oneClass, fastOneClass, k1)
	}
	if bruteForced < trials/2 {
		t.Errorf("only %d of %d trials were small enough to brute-force", bruteForced, trials)
	}
	t.Logf("%d trials brute-forced; %d candidates evaluated; vertices: %d no slow rows, %d two fast rows, %d with slow rows; "+
		"digits: %d/%d fast/slower with several classes, %d one class (%d fast under a stepping digit), %d K=1; %d two-digit rows over merged values",
		bruteForced, states, noSlow, twoFast, withSlow, fastPartial, slowPartial, oneClass, fastOneClass, k1, wide)
}

// digitClasses on hand-built sources: the classes are exactly the bit-identity
// classes — a copy merges, the next float up and −0 for +0 do not, a value of
// a two-digit source merges only when its rows agree under every setting of
// the other digit, a second source can split what the first would merge, and a
// source read through a child's classes merges the values the child already
// merged plus those whose row classes hold the same bits — in any chunking of
// the hash pass and with every hash colliding.
func TestDigitClassesAreTheBitIdentityClasses(t *testing.T) {
	up := math.Nextafter(3, 4)
	negZero := math.Copysign(0, -1)
	one := rowSrc{ // digit 0, six values
		vals: []float64{
			1, 2, 3,
			1, 2, 3,
			1, 2, up,
			0, 2, 3,
			negZero, 2, 3,
			1, 2, 3,
		},
		w: 3, digit: []int{0}, dim: []int{6}, cls: [][]int32{nil},
	}
	two := rowSrc{ // row = digit 1 (two values) + 2 · digit 2 (three) + 6 · digit 4 (one)
		vals: []float64{
			5, 5, 5, // digit 2 = 0
			6, 6, 6,
			5, 5, 5, // digit 2 = 1: one of its two rows is value 0's, the other is not
			7, 7, 7,
			5, 5, 5, // digit 2 = 2
			6, 6, 6,
		},
		w: 3, digit: []int{1, 2, 4}, dim: []int{2, 3, 1}, cls: [][]int32{nil, nil, nil},
	}
	split := rowSrc{ // digit 0 again: tells values 0 and 1 apart, nothing else
		vals: []float64{
			9, 9, 9,
			8, 9, 9,
			9, 9, 9,
			9, 9, 9,
			9, 9, 9,
			9, 9, 9,
		},
		w: 3, digit: []int{0}, dim: []int{6}, cls: [][]int32{nil},
	}
	quotient := rowSrc{ // a child table: two columns, digit 5's five values in three row classes
		vals: []float64{
			1, 2, // values 0 and 4
			3, 4, // values 1 and 2
			1, 2, // value 3: another class of the child, the same bits
		},
		w: 2, digit: []int{5}, dim: []int{3}, cls: [][]int32{{0, 1, 1, 2, 0}},
	}
	kd := []int{6, 2, 3, 4, 1, 5} // digit 3 is read by no row
	serial := func(total int64, f func(lo, hi int64)) { f(0, total) }
	pairs := func(total int64, f func(lo, hi int64)) {
		for lo := total - total%2; lo >= 0; lo -= 2 { // last chunk first
			f(lo, min(lo+2, total))
		}
	}
	never := func() bool { return false }
	for _, tc := range []struct {
		name    string
		srcs    []rowSrc
		classOf [][]int32
		reps    [][]int
	}{
		{"two sources", []rowSrc{one, two},
			[][]int32{{0, 0, 1, 2, 3, 0}, nil, {0, 1, 0}, {0, 0, 0, 0}, nil, {0, 0, 0, 0, 0}},
			[][]int{{0, 2, 3, 4}, {0, 1}, {0, 1}, {0}, {0}, {0}}},
		{"a third splits a class", []rowSrc{one, two, split},
			[][]int32{{0, 1, 2, 3, 4, 0}, nil, {0, 1, 0}, {0, 0, 0, 0}, nil, {0, 0, 0, 0, 0}},
			[][]int{{0, 1, 2, 3, 4}, {0, 1}, {0, 1}, {0}, {0}, {0}}},
		{"a quotient source", []rowSrc{one, quotient},
			[][]int32{{0, 0, 1, 2, 3, 0}, {0, 0}, {0, 0, 0}, {0, 0, 0, 0}, nil, {0, 1, 1, 0, 0}},
			[][]int{{0, 2, 3, 4}, {0}, {0}, {0}, {0}, {0, 1}}},
	} {
		for _, colliding := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s colliding=%v", tc.name, colliding), func(t *testing.T) {
				if colliding {
					collideRowHashes(t)
				}
				for _, par := range []func(int64, func(lo, hi int64)){serial, pairs} {
					classOf, reps := digitClasses(tc.srcs, kd, par, never)
					if !reflect.DeepEqual(classOf, tc.classOf) || !reflect.DeepEqual(reps, tc.reps) {
						t.Fatalf("classOf %v reps %v, want %v %v", classOf, reps, tc.classOf, tc.reps)
					}
				}
			})
		}
	}
}

// States is a function of table data alone: on the paper benchmarks it must
// repeat exactly at workers 1, 2 and 4 and at a forced small chunk size,
// along with the cost and every choice.
//
// Kept by hand: no mutant reaches the worker count.
func TestStatesIdenticalAcrossWorkersAndChunkSizes(t *testing.T) {
	const p = 8
	for _, bm := range []string{"alexnet", "inceptionv3", "rnnlm", "transformer"} {
		t.Run(bm, func(t *testing.T) {
			m := paperModel(t, bm, p)
			sq := seq.Generate(m.G)
			serial, err := Solve(context.Background(), m, sq, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if serial.Stats.States <= 0 {
				t.Fatalf("states %d, want > 0", serial.Stats.States)
			}
			check := func(label string, workers int) {
				got, err := Solve(context.Background(), m, sq, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, label, got, serial)
				if got.Stats.States != serial.Stats.States {
					t.Fatalf("%s: states %d, serial %d", label, got.Stats.States, serial.Stats.States)
				}
			}
			for _, workers := range []int{2, 4} {
				check(fmt.Sprintf("workers %d", workers), workers)
			}
			// 64-entry chunks: thousands of chunk boundaries per big table,
			// most of them inside a run of the fastest digit.
			forceChunks(t, 64, 64)
			check("64-entry chunks", 64)
		})
	}
}

// SolveKeep runs the same kernel over the tables whose keys changed only: after
// a random single-vertex edit it must equal a fresh solve of the edited model
// in cost, in every choice, and in every table — re-filled or reused — also
// where the re-filled positions cross a vertex whose scans are shared between
// merged digit values (the cost model's own TX tables have such values) and
// the tables it re-fills are read, in turn, by kept and re-filled neighbours
// — a re-filled reader indexing a kept child through the classes the old
// snapshot stored with it.
func TestResolveAfterRandomEditMatchesFreshSolveTableForTable(t *testing.T) {
	crossed, throughOldClasses := 0, 0
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(9300 + trial)))
		n := 6 + rng.Intn(8)
		seed := rng.Int63()
		build := func() *graph.Graph { return randomDNNGraph(rand.New(rand.NewSource(seed)), n) }
		g1, g2 := build(), build()
		g2.Nodes[rng.Intn(n)].FlopsPerPoint *= 1 + float64(1+rng.Intn(8))/4
		spec := machine.Uniform(8, 1e12, 1e10)
		m1, err := cost.NewModelWith(context.Background(), g1, spec, itspace.EnumPolicy{}, cost.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m2, err := cost.NewModelWith(context.Background(), g2, spec, itspace.EnumPolicy{}, cost.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sq := seq.Generate(g1)
		_, snap, err := SolveRetain(context.Background(), m1, sq, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, freshSnap, err := SolveRetain(context.Background(), m2, sq, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, _, shapes := naiveTables(m2, sq)
		missing := missingKeys(t, snap, m2, sq)
		children := seq.Children(g1, sq)
		for i, dirty := range missing {
			for d := range shapes[i].k {
				if dirty && shapes[i].merged(d) {
					crossed++
					break
				}
			}
			for _, j := range children[i] {
				if dirty && !missing[j] && slices.ContainsFunc(snap.tbl[j].classOf, func(c []int32) bool { return c != nil }) {
					throughOldClasses++
				}
			}
		}
		for _, workers := range workerCounts {
			label := fmt.Sprintf("trial %d workers %d", trial, workers)
			re, reSnap, err := SolveKeep(context.Background(), m2, sq, snap, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, label, re, fresh)
			requireSameSnapshots(t, label, reSnap, freshSnap)
			if re.Stats.States > fresh.Stats.States {
				t.Fatalf("%s: re-solve evaluated %d states, the fresh solve %d", label, re.Stats.States, fresh.Stats.States)
			}
		}
	}
	if crossed == 0 || throughOldClasses == 0 {
		t.Errorf("%d re-filled vertices had merged digit values, %d read a clean child through the old snapshot's classes — want both > 0",
			crossed, throughOldClasses)
	}
	t.Logf("%d re-filled vertices shared scans between merged digit values, %d read a clean child through the old snapshot's classes",
		crossed, throughOldClasses)
}

// A solve allocates its fill scratch itself, one per chunk, so what it
// allocates does not depend on whether a collection ran before it: a chunked
// Workers: 2 solve right after two forced collections allocates the same
// bytes, within 16, as a warm one. Two workers also make the runtime
// allocate a few hundred bytes at random for its own waits (the sudogs of
// WaitGroup blocking, whose central cache a collection empties), so each
// side is the least of eight solves.
func TestFillAllocationIndependentOfGC(t *testing.T) {
	forceChunks(t, 256, 64)
	m := paperModel(t, "transformer", 8)
	sq := seq.Generate(m.G)
	least := func(collect bool) uint64 {
		t.Helper()
		lo := uint64(math.MaxUint64)
		for range 8 {
			if collect {
				runtime.GC()
				runtime.GC()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Solve(context.Background(), m, sq, Options{Workers: 2}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			lo = min(lo, after.TotalAlloc-before.TotalAlloc)
		}
		return lo
	}
	least(false) // whatever a first call over the model sets up
	afterGC, warm := least(true), least(false)
	if d := int64(afterGC) - int64(warm); d < -16 || d > 16 {
		t.Fatalf("a solve after two collections allocated %d B, a warm solve %d B: %d B apart, want ≤ 16", afterGC, warm, d)
	}
	t.Logf("after two collections %d B, warm %d B", afterGC, warm)
}
