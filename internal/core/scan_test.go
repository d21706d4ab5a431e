package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
// fastest stepping digit moves and how many it does not.
type scanShape struct{ fast, slow int }

// naiveTables evaluates recurrence (4) by definition — one map-free but
// stride-free, odometer-free, bound-free evaluation per (position, φ, c),
// every candidate in index order with a strict running minimum — in the
// kernel's documented summation order:
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
	subsets := seq.ConnectedSubsetsAll(g, sq)
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
		for _, sub := range subsets[i] {
			j := sq.Pos[sub[len(sub)-1]]
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
		shapes[i] = scanShape{fast: len(fast), slow: len(slow)}

		size := 1
		for _, d := range dep {
			size *= m.K(d)
		}
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
				cst := m.TL(v, c)
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

// adversarialModel builds a per-occurrence (uninterned, unpruned) model over
// a random layer graph with configuration counts from 1 up, then overwrites
// its cost tables in place with the inputs a bound-pruned scan could get
// wrong: constant rows, all-zero TX tables, costs from {0, 1, 2} (minima
// duplicated at several indices, every sum exact), the same with +Inf
// entries, and the cost model's own values left alone.
func adversarialModel(t *testing.T, rng *rand.Rand, n, p int) *cost.Model {
	t.Helper()
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
	m, err := cost.NewModelWith(context.Background(), g, machine.Uniform(p, 1e12, 1e10), itspace.EnumPolicy{},
		cost.BuildOptions{DisableInterning: true, DisablePruning: true})
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

func requireSameTables(t *testing.T, label string, snap *Snapshot, tbl [][]float64, choice [][]int32) {
	t.Helper()
	for i := range tbl {
		if !slices.Equal(snap.tbl[i], tbl[i]) {
			t.Fatalf("%s: cost table at position %d differs:\n got %v\nwant %v", label, i, snap.tbl[i], tbl[i])
		}
		if !slices.Equal(snap.choice[i], choice[i]) {
			t.Fatalf("%s: choice table at position %d differs:\n got %v\nwant %v", label, i, snap.choice[i], choice[i])
		}
	}
}

// The bound-pruned scan against the definition: on adversarial tables, under
// GENERATESEQ and random orderings, every DP table and every choice must
// equal the naive linear evaluation of the same summation order, the optimum
// must equal brute force, and tables and state counts must repeat at every
// worker count and at a forced tiny chunk size.
func TestPrunedScanMatchesNaiveOnAdversarialTables(t *testing.T) {
	var noSlow, twoFast, withSlow, bruteForced int
	var states, space int64
	for trial := 0; trial < 240; trial++ {
		rng := rand.New(rand.NewSource(int64(5200 + trial)))
		n := 3 + rng.Intn(5)
		m := adversarialModel(t, rng, n, []int{2, 4, 8}[trial%3])
		sq := seq.Generate(m.G)
		if trial%2 == 1 {
			sq = seq.FromOrder(m.G, rng.Perm(n))
		}
		wantT, wantC, shapes := naiveTables(m, sq)
		for _, sh := range shapes {
			switch {
			case sh.fast >= 2:
				twoFast++
			case sh.slow == 0:
				noSlow++
			default:
				withSlow++
			}
		}

		res, snap, err := SolveRetain(context.Background(), m, sq, Options{Workers: 1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		label := fmt.Sprintf("trial %d", trial)
		requireSameTables(t, label, snap, wantT, wantC)
		if res.Stats.States > res.Stats.ScanSpace {
			t.Fatalf("%s: %d states evaluated out of a scan space of %d", label, res.Stats.States, res.Stats.ScanSpace)
		}
		states += res.Stats.States
		space += res.Stats.ScanSpace

		// Brute force is exponential (and slow under -race): it runs where
		// the strategy space is small, which is most trials.
		strategies := 1
		for v := 0; v < n; v++ {
			strategies *= m.K(v)
		}
		if strategies <= 20000 {
			bruteForced++
			bf, err := BruteForce(m)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != bf.Cost && math.Abs(res.Cost-bf.Cost) > 1e-9*math.Abs(bf.Cost) {
				t.Fatalf("%s: DP optimum %v, brute force %v", label, res.Cost, bf.Cost)
			}
		}

		check := func(label string, workers int) {
			got, gotSnap, err := SolveRetain(context.Background(), m, sq, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireSameTables(t, label, gotSnap, wantT, wantC)
			requireSameResult(t, label, got, res)
			if got.Stats.States != res.Stats.States || got.Stats.ScanSpace != res.Stats.ScanSpace {
				t.Fatalf("%s: states %d/%d, serial %d/%d", label,
					got.Stats.States, got.Stats.ScanSpace, res.Stats.States, res.Stats.ScanSpace)
			}
		}
		t.Run(label, func(t *testing.T) {
			forceChunks(t, 2, 3)
			for _, workers := range []int{2, 4} {
				check(fmt.Sprintf("%s tiny chunks workers %d", label, workers), workers)
			}
		})
	}
	if noSlow == 0 || twoFast == 0 || withSlow == 0 {
		t.Errorf("shape coverage: %d vertices without slow rows, %d with two fast rows, %d with slow rows — want all > 0",
			noSlow, twoFast, withSlow)
	}
	if bruteForced < 120 {
		t.Errorf("only %d of 240 trials were small enough to brute-force", bruteForced)
	}
	if states >= space {
		t.Errorf("the bound never cut a candidate: %d states over a scan space of %d", states, space)
	}
	t.Logf("%d trials brute-forced; %d of %d candidates evaluated; vertices: %d no slow rows, %d two fast rows, %d with slow rows",
		bruteForced, states, space, noSlow, twoFast, withSlow)
}

// States is a function of table data alone: on the paper benchmarks it must
// repeat exactly at workers 1, 2 and 4 and at a forced small chunk size,
// along with the cost and every choice.
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
			if serial.Stats.States <= 0 || serial.Stats.States > serial.Stats.ScanSpace {
				t.Fatalf("states %d outside (0, scan space %d]", serial.Stats.States, serial.Stats.ScanSpace)
			}
			check := func(label string, workers int) {
				got, err := Solve(context.Background(), m, sq, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, label, got, serial)
				if got.Stats.States != serial.Stats.States || got.Stats.ScanSpace != serial.Stats.ScanSpace {
					t.Fatalf("%s: states %d/%d, serial %d/%d", label,
						got.Stats.States, got.Stats.ScanSpace, serial.Stats.States, serial.Stats.ScanSpace)
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

// Resolve runs the same kernel over the dirty closure only: after a random
// single-vertex edit it must equal a fresh solve of the edited model in cost,
// in every choice, and in every table — re-filled or reused.
func TestResolveAfterRandomEditMatchesFreshSolveTableForTable(t *testing.T) {
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
		for _, workers := range workerCounts {
			label := fmt.Sprintf("trial %d workers %d", trial, workers)
			re, reSnap, err := Resolve(context.Background(), m2, snap, dirtyFromModels(t, m1, m2), Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, label, re, fresh)
			requireSameTables(t, label, reSnap, freshSnap.tbl, freshSnap.choice)
			if re.Stats.States > fresh.Stats.States || re.Stats.ScanSpace > fresh.Stats.ScanSpace {
				t.Fatalf("%s: re-solve evaluated %d/%d states, the fresh solve %d/%d", label,
					re.Stats.States, re.Stats.ScanSpace, fresh.Stats.States, fresh.Stats.ScanSpace)
			}
		}
	}
}

// The scratch a fill or a beam pass returns to its pool must not keep any DP
// or cost table alive: it may hold nothing a table slice could be stored in,
// only pointer-free values and slices of pointer-free elements (indices and
// its own cost buffers), directly or inside a nested struct.
func TestPooledScratchCannotReferenceTables(t *testing.T) {
	var check func(name string, typ reflect.Type)
	check = func(name string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch {
			case f.Type.Kind() == reflect.Struct:
				check(name+"."+f.Name, f.Type)
			case f.Type.Kind() == reflect.Slice && hasPointers(f.Type.Elem()):
				t.Errorf("%s.%s has element type %s, which can reference a table", name, f.Name, f.Type.Elem())
			case f.Type.Kind() != reflect.Slice && hasPointers(f.Type):
				t.Errorf("%s.%s is a %s, which can reference a table", name, f.Name, f.Type)
			}
		}
	}
	check("fillScratch", reflect.TypeOf(fillScratch{}))
	check("beamScratch", reflect.TypeOf(beamScratch{}))
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}
