package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/seq"
)

// blockGraph is a stack of identical blocks, the shape table classes exist
// for: a source vertex, then repeats copies of one random template. A block is
// a chain of one to three vertices from its entry — the previous block's last
// chain vertex, or the source — with random skip edges inside the block, plus
// side branches, subtrees of the recursion that do not reach into the block
// before: a leaf off the chain's end and, off the entry, either a leaf or a
// fork, a vertex with two leaves of its own. Blocks 1.. are alike down to
// their entry's content; block 0 hangs off the source and is not. at(r, i) is
// the node of template vertex i in block r; tip is the template index of a
// leaf of the entry's side branch.
type blockGraph struct {
	g    *graph.Graph
	size int // vertices per block
	tip  int
}

func (b blockGraph) at(r, i int) int { return 1 + r*b.size + i }

// addFC appends a fully connected layer over (b, n, c) = sp, and connect feeds
// one layer's output to another.
func addFC(g *graph.Graph, sp itspace.Space, flops float64) *graph.Node {
	return g.AddNode(&graph.Node{
		Name:          "fc",
		Op:            graph.OpFC,
		Space:         sp,
		Output:        graph.TensorRef{Map: []int{0, 1}},
		Params:        []graph.TensorRef{{Map: []int{1, 2}, Param: true}},
		FlopsPerPoint: flops,
	})
}

func connect(g *graph.Graph, from, to *graph.Node) {
	to.Inputs = append(to.Inputs, graph.TensorRef{Map: []int{0, 2}})
	g.AddEdge(from, to)
}

func newBlockGraph(rng *rand.Rand, repeats int, sizes []int64, small bool) blockGraph {
	g := graph.New()
	space := func() itspace.Space {
		return itspace.Space{
			{Name: "b", Size: sizes[rng.Intn(len(sizes))]},
			{Name: "n", Size: sizes[rng.Intn(len(sizes))]},
			{Name: "c", Size: sizes[rng.Intn(len(sizes))]},
		}
	}
	// The template: per vertex its parents, −1 for the entry.
	parents := [][]int{{-1}} // the entry's leaf, or the fork's root
	tip, chain := 0, 1
	if !small {
		parents = append(parents, []int{0}, []int{0}) // the fork's leaves
		tip, chain = 1, 1+rng.Intn(3)
	}
	first := len(parents)
	for i := first; i < first+chain; i++ {
		ps := []int{i - 1}
		if i == first {
			ps[0] = -1
		} else if p := first - 1 + rng.Intn(i-first+1); rng.Intn(2) == 0 && p != i-1 {
			if p < first {
				p = -1
			}
			ps = append(ps, p) // a skip edge: from the entry or an earlier chain vertex
		}
		parents = append(parents, ps)
	}
	exit := len(parents) - 1
	parents = append(parents, []int{exit}) // the exit's leaf
	spaces := make([]itspace.Space, len(parents))
	for i := range spaces {
		spaces[i] = space()
	}

	b := blockGraph{g: g, size: len(parents), tip: tip}
	addFC(g, space(), 2) // the source
	for r := 0; r < repeats; r++ {
		for i := range parents {
			addFC(g, slices.Clone(spaces[i]), 2)
		}
	}
	for r := 0; r < repeats; r++ {
		entry := 0
		if r > 0 {
			entry = b.at(r-1, exit)
		}
		for i, ps := range parents {
			for _, p := range ps {
				from := entry
				if p >= 0 {
					from = b.at(r, p)
				}
				connect(g, g.Nodes[from], g.Nodes[b.at(r, i)])
			}
		}
	}
	return b
}

// sameTable reports whether two model tables are one: same first cell, same
// length.
func sameTable(a, b []float64) bool { return len(a) == len(b) && &a[0] == &b[0] }

// naiveClasses is tableClasses by definition, pair by pair: position b joins
// the first earlier position a whose table is computed from the same TL row,
// the same digit sizes, the same TX tables read through the same digits in
// the same order, and the same subsets in the same order — each child in the
// same class, its dependent set wired to the same digits.
func naiveClasses(m *cost.Model, sq *seq.Sequence, children [][]int) []int {
	type txSrc struct {
		vals  []float64
		digit int
	}
	wire := func(i, d int) int { // −1: the position's own vertex
		if d == sq.Order[i] {
			return -1
		}
		return slices.Index(sq.Dep[i], d)
	}
	txOf := func(i int) (out []txSrc) {
		v := sq.Order[i]
		for _, ie := range m.Incidence(v) {
			if sq.Pos[ie.Other] <= i {
				continue
			}
			vals, _ := m.EdgeTable(ie.E)
			if ie.VIsU {
				vals, _ = m.EdgeTableT(ie.E)
			}
			out = append(out, txSrc{vals, wire(i, ie.Other)})
		}
		return out
	}
	rep := make([]int, len(sq.Order))
	same := func(a, b int) bool {
		if !sameTable(m.TLRow(sq.Order[a]), m.TLRow(sq.Order[b])) || len(sq.Dep[a]) != len(sq.Dep[b]) {
			return false
		}
		for k := range sq.Dep[a] {
			if m.K(sq.Dep[a][k]) != m.K(sq.Dep[b][k]) {
				return false
			}
		}
		if !slices.EqualFunc(txOf(a), txOf(b), func(x, y txSrc) bool { return sameTable(x.vals, y.vals) && x.digit == y.digit }) {
			return false
		}
		return slices.EqualFunc(children[a], children[b], func(ja, jb int) bool {
			return rep[ja] == rep[jb] && slices.EqualFunc(sq.Dep[ja], sq.Dep[jb], func(da, db int) bool {
				return wire(a, da) == wire(b, db)
			})
		})
	}
	for b := range rep {
		rep[b] = b
		for a := 0; a < b; a++ {
			if rep[a] == a && same(a, b) {
				rep[b] = a
				break
			}
		}
	}
	return rep
}

// classMates returns the positions sharing position i's class, i included.
func classMates(rep []int, i int) (out []int) {
	for j, r := range rep {
		if r == rep[i] {
			out = append(out, j)
		}
	}
	return out
}

// classesOf is the solver's table classes of the ordering over m.
func classesOf(t *testing.T, m *cost.Model, sq *seq.Sequence, children [][]int) []int {
	t.Helper()
	rep, _, err := newFrame(context.Background(), m, sq, children, Options{}, "").tableClasses()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func buildModel(t *testing.T, g *graph.Graph, spec machine.Spec, pol itspace.EnumPolicy, bo cost.BuildOptions) *cost.Model {
	t.Helper()
	m, err := cost.NewModelWith(context.Background(), g, spec, pol, bo)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sharedStats is what the naive classes and the naive scan shapes say a solve
// of the model must report.
type sharedStats struct {
	positions              int
	entries, total, space  int64
	perPosition, fullSpace int64
}

func wantSharedStats(rep []int, tbl [][]float64, shapes []scanShape) (w sharedStats) {
	for i, r := range rep {
		w.perPosition += int64(len(tbl[i]))
		w.fullSpace += shapes[i].space
		if r != i {
			w.positions++
			w.entries += int64(len(tbl[i]))
			continue
		}
		w.total += int64(len(tbl[i]))
		w.space += shapes[i].space
	}
	return w
}

// requireSharingSolve solves the interned model mi in every mode and compares
// with the definitional reference, which fills EVERY position on its own: every
// table and choice of every position — shared or not — bit-equal to that
// position's own naive fill, the stats those of the naive classes, one table
// per class in the snapshot, the same tables and counts at any worker count,
// chunking and hash quality, with and without retention, at the budget's edge
// and below it; and the model without interning, mo, shares nothing and agrees
// bit for bit. It returns the interned solve's classes and result.
func requireSharingSolve(t *testing.T, label string, mi, mo *cost.Model, sq *seq.Sequence) ([]int, *Result) {
	t.Helper()
	children := seq.Children(mi.G, sq)
	rep := classesOf(t, mi, sq, children)
	if want := naiveClasses(mi, sq, children); !slices.Equal(rep, want) {
		t.Fatalf("%s: classes %v, by definition %v", label, rep, want)
	}
	for i, r := range classesOf(t, mo, sq, children) {
		if r != i {
			t.Fatalf("%s: without interning position %d joined position %d", label, i, r)
		}
	}
	wantT, wantC, shapes := naiveTables(mi, sq)
	want := wantSharedStats(rep, wantT, shapes)

	res, snap, err := SolveRetain(context.Background(), mi, sq, Options{Workers: 1})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	requireSameTables(t, label, snap, wantT, wantC)
	requireStoredSizes(t, label, snap, shapes)
	st := res.Stats
	if st.SharedPositions != want.positions || st.SharedEntries != want.entries || st.TotalEntries != want.total || st.States != want.space {
		t.Fatalf("%s: shared %d positions / %d entries, %d distinct entries, %d states; by definition %+v",
			label, st.SharedPositions, st.SharedEntries, st.TotalEntries, st.States, want)
	}
	for i, r := range rep {
		if snap.tbl[i] != snap.tbl[r] {
			t.Fatalf("%s: the snapshot holds a copy of position %d's table at position %d", label, r, i)
		}
	}

	check := func(label string, m *cost.Model, opts Options) *Result {
		t.Helper()
		got, gotSnap, err := SolveRetain(context.Background(), m, sq, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireSameTables(t, label, gotSnap, wantT, wantC)
		requireSameResult(t, label, got, res)
		return got
	}
	sameCounts := func(label string, got *Result) {
		t.Helper()
		if g := got.Stats; g.States != st.States || g.SharedPositions != st.SharedPositions ||
			g.SharedEntries != st.SharedEntries || g.TotalEntries != st.TotalEntries || g.PeakLiveEntries != st.PeakLiveEntries {
			t.Fatalf("%s: stats %+v, serial retaining solve %+v", label, g, st)
		}
	}
	t.Run(label, func(t *testing.T) {
		forceChunks(t, 2, 3)
		for _, workers := range []int{2, 4} {
			sameCounts(label, check(fmt.Sprintf("%s tiny chunks workers %d", label, workers), mi, Options{Workers: workers}))
		}
		collideRowHashes(t)
		sameCounts(label, check(label+" colliding hashes", mi, Options{Workers: 2}))
	})
	plain, err := Solve(context.Background(), mi, sq, Options{Workers: 1})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	requireSameResult(t, label+" not retaining", plain, res)
	sameCounts(label+" not retaining", plain)

	// The budget bounds what is live with a class charged once: the peak is
	// enough, for the same fill, and one entry under it the solve fails,
	// retaining or not.
	peak := st.PeakLiveEntries
	sameCounts(label+" at its peak", check(fmt.Sprintf("%s budget %d", label, peak), mi, Options{Workers: 1, MaxTableEntries: peak}))
	under := Options{Workers: 1, MaxTableEntries: peak - 1}
	_, err = Solve(context.Background(), mi, sq, under)
	if _, _, errRetain := SolveRetain(context.Background(), mi, sq, under); !errors.Is(err, ErrOOM) || !errors.Is(errRetain, ErrOOM) {
		t.Fatalf("%s: budget %d under a peak of %d: not retaining %v, retaining %v, want ErrOOM", label, peak-1, peak, err, errRetain)
	}

	// Without interning every position is filled — to the same bits, since the
	// tables hold the same bytes.
	oracle := check(label+" without interning", mo, Options{Workers: 1})
	if o := oracle.Stats; o.SharedPositions != 0 || o.SharedEntries != 0 || o.TotalEntries != want.perPosition ||
		o.States != want.fullSpace {
		t.Fatalf("%s: without interning %+v; interned %+v", label, o, st)
	}
	return rep, res
}

// The oracle for table classes. The adversarial graphs of scan_test.go repeat
// nothing, so no class ever merges there; these do. On stacks of identical
// blocks (and the repeated-layer Transformer), every position's table — shared
// or not — is compared with its own definitional fill and the classes with
// their pairwise definition; then one vertex of one block is edited — its
// layer cost, a tensor it reads, its configuration count — which must take
// that position (and whatever the edit reaches) out of its class and nothing
// else, as the definition says, while the other blocks go on sharing; a delta
// re-solve across the edit, whose classes are the new model's, must match the
// fresh solve table for table; and brute force agrees where it is affordable.
func TestTableClassesShareExactlyTheTablesEqualByConstruction(t *testing.T) {
	var shared, sharedRandomOrder, bruteForced, twoSubsets, regrouped, resized int
	for trial := 0; trial < 96; trial++ {
		rng := rand.New(rand.NewSource(int64(2200 + trial)))
		p := []int{2, 4, 8}[trial%3]
		repeats := 4
		sizes := []int64{2, 4, 16}
		randomOrder := trial%4 == 1 || trial >= 48
		small := trial%2 == 1 || randomOrder // small enough to brute-force, and for a random ordering's dependent sets
		if small {
			p, repeats, sizes = 2, 3, []int64{1, 2}
		}
		spec := machine.Uniform(p, 1e12, 1e10)
		seed := rng.Int63()
		// build returns the trial's graph — same seed, same graph — with one
		// node's content edited: a leaf of the entry's side branch in the third
		// block. Interned, and as the per-occurrence oracle.
		var bg blockGraph
		build := func(edit func(v *graph.Node)) (*cost.Model, *cost.Model) {
			bg = newBlockGraph(rand.New(rand.NewSource(seed)), repeats, sizes, small)
			if edit != nil {
				edit(bg.g.Nodes[bg.at(2, bg.tip)])
			}
			return buildModel(t, bg.g, spec, itspace.EnumPolicy{}, cost.BuildOptions{}),
				buildModel(t, bg.g, spec, itspace.EnumPolicy{}, cost.BuildOptions{DisableInterning: true})
		}
		mi, mo := build(nil)
		sq := seq.Generate(mi.G)
		if randomOrder {
			sq = seq.FromOrder(mi.G, rng.Perm(mi.G.Len()))
		}
		label := fmt.Sprintf("trial %d", trial)
		rep, res := requireSharingSolve(t, label, mi, mo, sq)
		shared += res.Stats.SharedPositions
		if randomOrder {
			sharedRandomOrder += res.Stats.SharedPositions
		}

		strategies := 1
		for v := 0; v < mi.G.Len() && strategies <= 1<<20; v++ {
			strategies *= mi.K(v)
		}
		if strategies <= 1<<20 {
			bruteForced++
			bf, err := bruteForce(mi)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != bf.Cost && math.Abs(res.Cost-bf.Cost) > 1e-9*math.Abs(bf.Cost) {
				t.Fatalf("%s: DP optimum %v, brute force %v", label, res.Cost, bf.Cost)
			}
		}
		if small {
			continue // the edits below need GENERATESEQ's ordering and a block on either side
		}

		// Under GENERATESEQ the side branch's leaf is a leaf of the recursion in
		// every block, so blocks 1.. share it.
		tip := func(r int) int { return sq.Pos[bg.at(r, bg.tip)] }
		if rep[tip(1)] != rep[tip(2)] || rep[tip(2)] != rep[tip(3)] {
			t.Fatalf("%s: the side-branch tips of blocks 1-3 are in classes %d %d %d", label, rep[tip(1)], rep[tip(2)], rep[tip(3)])
		}
		_, snap, err := SolveRetain(context.Background(), mi, sq, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, edit := range []struct {
			name string
			do   func(v *graph.Node)
		}{
			{"layer cost", func(v *graph.Node) { v.FlopsPerPoint *= 3 }},
			{"tensor read", func(v *graph.Node) { v.Inputs[0].Scale = 2 }},
			{"extent", func(v *graph.Node) { v.Space[2].Size = 1 }}, // nothing left to split: fewer configurations
		} {
			label := fmt.Sprintf("%s, %s edited", label, edit.name)
			ei, eo := build(edit.do)
			erep, eres := requireSharingSolve(t, label, ei, eo, sq)
			if mates := classMates(erep, tip(2)); len(mates) != 1 {
				t.Fatalf("%s: the edited position %d still shares a table: class %v", label, tip(2), mates)
			}
			if erep[tip(1)] != erep[tip(3)] || eres.Stats.SharedPositions == 0 || eres.Stats.SharedPositions >= res.Stats.SharedPositions {
				t.Fatalf("%s: blocks 1 and 3 in classes %d and %d, %d shared positions (%d before the edit)",
					label, erep[tip(1)], erep[tip(3)], eres.Stats.SharedPositions, res.Stats.SharedPositions)
			}
			// A re-solve takes the new model's classes: positions the edit
			// split off are re-filled, positions still alike share a table
			// that was kept clean or re-filled earlier in the run.
			if ei.K(bg.at(2, bg.tip)) != mi.K(bg.at(2, bg.tip)) {
				resized++ // a digit changed size, and tables their shape: their keys moved
			}
			fresh, freshSnap, err := SolveRetain(context.Background(), ei, sq, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				re, reSnap, err := SolveKeep(context.Background(), ei, sq, snap, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, label+" re-solved", re, fresh)
				requireSameSnapshots(t, label+" re-solved", reSnap, freshSnap)
				if re.Stats.SharedPositions != fresh.Stats.SharedPositions || re.Stats.TotalEntries != fresh.Stats.TotalEntries ||
					re.Stats.States > fresh.Stats.States {
					t.Fatalf("%s: re-solve stats %+v, fresh %+v", label, re.Stats, fresh.Stats)
				}
			}
			// And back: the old model's classes return, the re-filled tip
			// rejoining a class whose table was kept clean.
			back, backSnap, err := SolveKeep(context.Background(), mi, sq, freshSnap, Options{})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, label+" and reverted", back, res)
			requireSameSnapshots(t, label+" and reverted", backSnap, snap)
			if back.Stats.SharedPositions != res.Stats.SharedPositions {
				t.Fatalf("%s and reverted: %d shared positions, %d before the edit", label, back.Stats.SharedPositions, res.Stats.SharedPositions)
			}
			regrouped++
		}

		// The order of a position's subsets is the order their tables are
		// summed in: two positions that fold the same children in a different
		// order are not one class. Swap two subsets at one shared position.
		children := seq.Children(mi.G, sq)
		child := func(i, s int) int { return rep[children[i][s]] }
		at := slices.IndexFunc(rep, func(r int) bool {
			return len(children[r]) >= 2 && len(classMates(rep, r)) > 1 && child(r, 0) != child(r, 1)
		})
		if at < 0 {
			continue
		}
		twoSubsets++
		swapped := slices.Clone(children)
		swapped[at] = slices.Clone(children[at])
		swapped[at][0], swapped[at][1] = swapped[at][1], swapped[at][0]
		srep := classesOf(t, mi, sq, swapped)
		if want := naiveClasses(mi, sq, swapped); !slices.Equal(srep, want) {
			t.Fatalf("%s: with two subsets of position %d swapped, classes %v, by definition %v", label, at, srep, want)
		}
		if mates := classMates(srep, at); len(mates) != 1 {
			t.Fatalf("%s: position %d folds its subsets in another order and still shares a table: class %v", label, at, mates)
		}
	}
	// A chain whose path visits node IDs out of order, 0→1→2→5→4→3: node 2's
	// incidence lists its in-edge first, node 4's its out-edge, so under this
	// ordering the two read one non-symmetric TX table through the same digits
	// from opposite ends, and only the side keeps their positions apart.
	g := graph.New()
	for range 6 {
		addFC(g, itspace.Space{{Name: "b", Size: 64}, {Name: "n", Size: 64}, {Name: "c", Size: 64}}, 2)
	}
	for _, uv := range [][2]int{{0, 1}, {1, 2}, {2, 5}, {5, 4}, {4, 3}} {
		connect(g, g.Nodes[uv[0]], g.Nodes[uv[1]])
	}
	spec := machine.Uniform(8, 1e12, 1e10)
	requireSharingSolve(t, "out-of-order chain", buildModel(t, g, spec, itspace.EnumPolicy{}, cost.BuildOptions{}),
		buildModel(t, g, spec, itspace.EnumPolicy{}, cost.BuildOptions{DisableInterning: true}), seq.FromOrder(g, []int{0, 2, 1, 4, 3, 5}))
	if shared == 0 || sharedRandomOrder == 0 || bruteForced == 0 || twoSubsets == 0 || regrouped == 0 || resized == 0 {
		t.Errorf("coverage: %d shared positions (%d under random orderings), %d trials brute-forced, %d with a shared two-subset position, "+
			"%d edits re-solved, %d edits resized a digit — want all > 0", shared, sharedRandomOrder, bruteForced, twoSubsets, regrouped, resized)
	}
	t.Logf("%d shared positions (%d under random orderings), %d trials brute-forced, %d with a shared two-subset position, %d edits re-solved, %d edits resized a digit",
		shared, sharedRandomOrder, bruteForced, twoSubsets, regrouped, resized)
}

// The same on the graph the sharing was measured on: the repeated-layer
// Transformer of the interning tests, every position against its own
// definitional fill.
func TestTableClassesOnTheRepeatedLayerTransformer(t *testing.T) {
	g := models.Transformer(models.TransformerConfig{
		Batch: 32, SeqLen: 32, DModel: 256, Heads: 8, KVDim: 32,
		FFHidden: 512, Vocab: 1024, Layers: 3,
	})
	spec := machine.GTX1080Ti(8)
	pol := itspace.EnumPolicy{MaxSplitDims: 2}
	mi := buildModel(t, g, spec, pol, cost.BuildOptions{})
	mo := buildModel(t, g, spec, pol, cost.BuildOptions{DisableInterning: true})
	_, res := requireSharingSolve(t, "transformer", mi, mo, seq.Generate(g))
	if res.Stats.SharedPositions == 0 {
		t.Fatal("no position of the repeated-layer Transformer shares a table")
	}
	t.Logf("%d of %d positions share a table (%d of %d entries)", res.Stats.SharedPositions, g.Len(),
		res.Stats.SharedEntries, res.Stats.SharedEntries+res.Stats.TotalEntries)
}

// Two near-misses random graphs do not produce, built by hand: positions whose
// inputs are the same tables and the same child classes and differ only in
// which φ digit reads them. In the first, v and v' each feed an a and a b —
// different layers with equally many configurations — and the ordering puts a
// before b but b' before a', so the same two TX tables are read through
// swapped digits. In the second, v and v' each read two different leaves, one
// shared with an x and one with a y, x and y alike, ordered x, y but y', x': the
// same two child tables, wired to swapped digits. Everything below v is shared;
// v' must not join v, and every table must be its own definitional fill. (That
// a TL row or a digit's size differs while all else is equal cannot be built:
// under interning the TX tables and child classes of a position imply both.)
func TestTableClassesTellTheSameTablesReadThroughOtherDigitsApart(t *testing.T) {
	sp := func(b, n, c int64) itspace.Space {
		return itspace.Space{{Name: "b", Size: b}, {Name: "n", Size: n}, {Name: "c", Size: c}}
	}
	spec := machine.Uniform(4, 1e12, 1e10)
	for _, tc := range []struct {
		name  string
		build func(g *graph.Graph) (order []int, v, v2 int, shared [][2]int)
	}{
		{"TX tables", func(g *graph.Graph) ([]int, int, int, [][2]int) {
			h := addFC(g, sp(4, 4, 4), 2)
			var vs, as, bs [2]*graph.Node
			for r := range vs {
				vs[r], as[r], bs[r] = addFC(g, sp(4, 16, 4), 2), addFC(g, sp(4, 4, 16), 2), addFC(g, sp(4, 16, 8), 2)
				connect(g, h, vs[r])
				connect(g, vs[r], as[r])
				connect(g, vs[r], bs[r])
			}
			return []int{vs[0].ID, vs[1].ID, as[0].ID, bs[1].ID, bs[0].ID, as[1].ID, h.ID}, vs[0].ID, vs[1].ID, nil
		}},
		{"child tables", func(g *graph.Graph) ([]int, int, int, [][2]int) {
			h := addFC(g, sp(4, 4, 4), 2)
			var vs, l1, l2, xs, ys [2]*graph.Node
			for r := range vs {
				l1[r], l2[r] = addFC(g, sp(4, 16, 4), 2), addFC(g, sp(4, 4, 16), 2)
				vs[r], xs[r], ys[r] = addFC(g, sp(4, 4, 4), 2), addFC(g, sp(4, 16, 16), 2), addFC(g, sp(4, 16, 16), 2)
				connect(g, l1[r], vs[r])
				connect(g, l2[r], vs[r])
				connect(g, l1[r], xs[r])
				connect(g, l2[r], ys[r])
				for _, u := range []*graph.Node{vs[r], xs[r], ys[r]} {
					connect(g, h, u) // h produces: as a consumer it would read every block through a slot of its own
				}
			}
			return []int{l1[0].ID, l2[0].ID, l1[1].ID, l2[1].ID, vs[0].ID, vs[1].ID, xs[0].ID, ys[0].ID, ys[1].ID, xs[1].ID, h.ID},
				vs[0].ID, vs[1].ID, [][2]int{{l1[0].ID, l1[1].ID}, {l2[0].ID, l2[1].ID}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.New()
			order, v, v2, shared := tc.build(g)
			mi := buildModel(t, g, spec, itspace.EnumPolicy{}, cost.BuildOptions{})
			mo := buildModel(t, g, spec, itspace.EnumPolicy{}, cost.BuildOptions{DisableInterning: true})
			sq := seq.FromOrder(g, order)
			// The case is the near-miss only if the two positions agree on
			// everything but the digits: same TL row, same digit sizes, same
			// TX tables in the same order.
			kd := func(i int) (out []int) {
				for _, d := range sq.Dep[i] {
					out = append(out, mi.K(d))
				}
				return out
			}
			sameTX := slices.EqualFunc(mi.Incidence(v), mi.Incidence(v2), func(a, b cost.IncEdge) bool {
				ta, _ := mi.EdgeTable(a.E)
				tb, _ := mi.EdgeTable(b.E)
				return sameTable(ta, tb) && a.VIsU == b.VIsU
			})
			if !sameTable(mi.TLRow(v), mi.TLRow(v2)) || !slices.Equal(kd(sq.Pos[v]), kd(sq.Pos[v2])) || !sameTX {
				t.Fatalf("digit sizes %v and %v, same TX tables %v: the two positions differ in more than their wiring",
					kd(sq.Pos[v]), kd(sq.Pos[v2]), sameTX)
			}
			rep, _ := requireSharingSolve(t, tc.name, mi, mo, sq)
			if rep[sq.Pos[v2]] == rep[sq.Pos[v]] {
				t.Fatalf("positions %d and %d read the same tables through different digits and share a table", sq.Pos[v], sq.Pos[v2])
			}
			for _, pair := range shared {
				if rep[sq.Pos[pair[1]]] != rep[sq.Pos[pair[0]]] {
					t.Fatalf("positions %d and %d do not share a table", sq.Pos[pair[0]], sq.Pos[pair[1]])
				}
			}
		})
	}
}

// requireNonRetainingMatchesRetaining runs the non-retaining solve at every
// worker count and requires the result and the counts of the retaining solve:
// dropping a shared table's costs after its last reader — whichever position
// of its class that reader names — must change nothing.
func requireNonRetainingMatchesRetaining(t *testing.T, label string, m *cost.Model, sq *seq.Sequence) *Result {
	t.Helper()
	want, _, err := SolveRetain(context.Background(), m, sq, Options{Workers: 1})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, workers := range []int{1, 2, 4} {
		label := fmt.Sprintf("%s workers %d", label, workers)
		got, err := Solve(context.Background(), m, sq, Options{Workers: workers})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireSameResult(t, label, got, want)
		// Every count, not the stage timings, which vary from run to run.
		gotSt, wantSt := got.Stats, want.Stats
		gotSt.Stages, wantSt.Stages = StageTimes{}, StageTimes{}
		if gotSt != wantSt {
			t.Fatalf("%s: stats %+v, retaining solve %+v", label, gotSt, wantSt)
		}
	}
	return want
}

// A table shared by several positions is dropped once, after the last reader
// of its class, and a non-retaining solve equals the retaining one. Block
// graphs at chunk sizes that split every fill, then the two paper models whose
// positions share tables, at p=32 and the default chunking (skipped under
// -short: these are the slow part under the race detector).
func TestNonRetainingSolveMatchesRetaining(t *testing.T) {
	t.Run("blocks", func(t *testing.T) {
		forceChunks(t, 2, 3)
		shared := 0
		for trial := 0; trial < 12; trial++ {
			rng := rand.New(rand.NewSource(int64(3300 + trial)))
			bg := newBlockGraph(rng, 4, []int64{2, 4, 16}, false)
			m := buildModel(t, bg.g, machine.Uniform([]int{2, 4, 8}[trial%3], 1e12, 1e10), itspace.EnumPolicy{}, cost.BuildOptions{})
			shared += requireNonRetainingMatchesRetaining(t, fmt.Sprintf("trial %d", trial), m, seq.Generate(m.G)).Stats.SharedPositions
		}
		if shared == 0 {
			t.Error("no position shared a table")
		}
	})
	if testing.Short() {
		return
	}
	for _, name := range []string{"transformer", "inceptionv3"} {
		t.Run(name, func(t *testing.T) {
			m := paperModel(t, name, 32)
			if requireNonRetainingMatchesRetaining(t, name, m, seq.Generate(m.G)).Stats.SharedPositions == 0 {
				t.Error("no position shared a table")
			}
		})
	}
}
