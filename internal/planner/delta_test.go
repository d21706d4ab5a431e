package planner

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
)

// mutateNode multiplies one named node's FLOPs density — a content-only
// delta: topology, iteration spaces, and tensor maps are untouched, so the
// config space (and every DP table shape) is preserved.
func mutateNode(t *testing.T, g *graph.Graph, name string, factor float64) {
	t.Helper()
	for i := range g.Nodes {
		if g.Nodes[i].Name == name {
			g.Nodes[i].FlopsPerPoint *= factor
			return
		}
	}
	t.Fatalf("no node named %q", name)
}

// changedVertices counts the vertices of two same-topology models whose
// vertex class fingerprint, or an incident edge's, differs.
func changedVertices(old, new *cost.Model) int {
	changed := make([]bool, new.G.Len())
	for v := range changed {
		changed[v] = old.VertexClassFP(v) != new.VertexClassFP(v)
	}
	for e, uv := range new.Edges() {
		if old.EdgeClassFP(e) != new.EdgeClassFP(e) {
			changed[uv[0]], changed[uv[1]] = true, true
		}
	}
	n := 0
	for _, c := range changed {
		if c {
			n++
		}
	}
	return n
}

func requireSameStrategy(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Fatalf("%s: cost %v != oracle %v", label, got.Cost, want.Cost)
	}
	if len(got.Strategy) != len(want.Strategy) {
		t.Fatalf("%s: strategy length %d != oracle %d", label, len(got.Strategy), len(want.Strategy))
	}
	for v := range want.Strategy {
		if !got.Strategy[v].Equal(want.Strategy[v]) {
			t.Fatalf("%s node %d: strategy %v != oracle %v", label, v, got.Strategy[v], want.Strategy[v])
		}
	}
}

// A small content delta must be served by incremental re-solve — and the
// result must be byte-identical (cost AND strategy) to a cold solve on a
// delta-less oracle planner, at every worker count.
func TestDeltaResolveByteIdentical(t *testing.T) {
	bm, err := models.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	const p = 8
	for _, workers := range []int{1, 4, 0} {
		g1 := bm.Build(bm.Batch)
		g2 := bm.Build(bm.Batch)
		mutateNode(t, g2, "enc0_self_wo", 1.5)
		opts := Options{Policy: bm.Policy(p), Workers: workers}
		spec := machine.GTX1080Ti(p)

		pl := New(Config{})
		base, err := pl.Solve(context.Background(), Request{G: g1, Spec: spec, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		if base.DeltaResolve {
			t.Fatalf("workers %d: first solve claims a delta re-solve", workers)
		}
		res, err := pl.Solve(context.Background(), Request{G: g2, Spec: spec, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		if !res.DeltaResolve {
			t.Fatalf("workers %d: mutated-graph solve did not delta re-solve (stats %+v)", workers, pl.Stats())
		}
		if st := pl.Stats(); st.DeltaResolves != 1 {
			t.Errorf("workers %d: DeltaResolves = %d, want 1", workers, st.DeltaResolves)
		}

		// The oracle: no delta cache — the plain cold path.
		oraclePl := New(Config{DeltaCacheSize: -1})
		oracle, err := oraclePl.Solve(context.Background(), Request{G: g2, Spec: spec, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		if oracle.DeltaResolve {
			t.Fatal("oracle planner performed a delta re-solve despite DeltaCacheSize -1")
		}
		requireSameStrategy(t, "delta vs oracle", res, oracle)
		if res.States >= base.States {
			t.Errorf("workers %d: delta re-solve evaluated %d states, cold %d — no work was skipped",
				workers, res.States, base.States)
		}
	}
}

// The acceptance benchmark: a single-layer delta on Transformer p=32
// re-solves several times cheaper than the cold solve — asserted on DP states
// evaluated over the eliminated model the planner solves (deterministic:
// 1 163 548 candidates against the cold solve's 5 811 377, 4.99x) with a loose
// wall-clock guard on each side's least of three rounds — and byte-identical
// to the oracle.
//
// Kept by hand: no mutant reaches a timing bar.
func TestDeltaSpeedupTransformer32(t *testing.T) {
	bm, err := models.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	const p = 32
	g1 := bm.Build(bm.Batch)
	g2 := bm.Build(bm.Batch)
	mutateNode(t, g2, "enc0_self_wo", 1.5)
	// One worker on both sides, so neither wall time depends on how many CPUs
	// sibling test packages leave free.
	opts := Options{Policy: bm.Policy(p), Workers: 1}
	spec := machine.GTX1080Ti(p)

	// Each side's wall time is the least of three rounds, cold then delta on
	// a fresh planner each round, so a busy neighbour does not decide the
	// ratio; the counts repeat exactly every round. A collection before each
	// timed solve keeps the previous solve's garbage out of its clock.
	var cold, delta *Result
	coldWall, deltaWall := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range 3 {
		pl := New(Config{})
		runtime.GC()
		t0 := time.Now()
		cold, err = pl.Solve(context.Background(), Request{G: g1, Spec: spec, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		coldWall = min(coldWall, time.Since(t0))
		runtime.GC()
		t0 = time.Now()
		delta, err = pl.Solve(context.Background(), Request{G: g2, Spec: spec, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		deltaWall = min(deltaWall, time.Since(t0))
		if !delta.DeltaResolve {
			t.Fatalf("p=32 single-layer delta was not served incrementally (stats %+v)", pl.Stats())
		}
		const recordedDeltaStates = 1_163_548
		if delta.States != recordedDeltaStates {
			t.Errorf("delta re-solve evaluated %d states, recorded %d", delta.States, recordedDeltaStates)
		}
	}
	states := float64(cold.States) / float64(delta.States)
	wall := float64(coldWall) / float64(deltaWall)
	t.Logf("cold %v / %d states, delta %v / %d states: %.2fx wall, %.2fx states",
		coldWall, cold.States, deltaWall, delta.States, wall, states)
	if states < 3 {
		t.Errorf("delta re-solve evaluated only %.2fx fewer states, want >= 3x", states)
	}
	// Wall clock is noisy on shared runners; the deterministic states ratio
	// above is the acceptance assertion, this guards against a re-solve that
	// somehow does full-cold work.
	if wall < 2 {
		t.Errorf("delta re-solve was only %.2fx faster in wall time, want well above 2x", wall)
	}

	oraclePl := New(Config{DeltaCacheSize: -1})
	oracle, err := oraclePl.Solve(context.Background(), Request{G: g2, Spec: spec, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	requireSameStrategy(t, "p=32 delta vs oracle", delta, oracle)
}

// A delta that dirties everything — here a different machine spec, which
// changes every class fingerprint at the same topology — keeps no table of
// the retained solve: it is no delta re-solve, fills every table, evaluates
// exactly the states of the cold solve, and is byte-identical to the oracle.
func TestEveryVertexDeltaResolves(t *testing.T) {
	bm, err := models.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	const p = 8
	g := bm.Build(bm.Batch)
	opts := Options{Policy: bm.Policy(p)}

	pl := New(Config{})
	if _, err := pl.Solve(context.Background(), Request{G: g, Spec: machine.GTX1080Ti(p), Opts: opts}); err != nil {
		t.Fatal(err)
	}
	res, err := pl.Solve(context.Background(), Request{G: g, Spec: machine.RTX2080Ti(p), Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaResolve {
		t.Error("an every-vertex delta claims to have kept a table")
	}
	if st := pl.Stats(); st.DeltaResolves != 0 || st.DeltaFallbacks != 0 {
		t.Errorf("DeltaResolves = %d, DeltaFallbacks = %d, want 0 and 0", st.DeltaResolves, st.DeltaFallbacks)
	}

	oraclePl := New(Config{DeltaCacheSize: -1})
	oracle, err := oraclePl.Solve(context.Background(), Request{G: g, Spec: machine.RTX2080Ti(p), Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	requireSameStrategy(t, "every-vertex delta vs oracle", res, oracle)
	if res.States != oracle.States {
		t.Errorf("every-vertex delta evaluated %d states, the cold oracle %d", res.States, oracle.States)
	}
}

// A beam request retains nothing. One between an edit's base and the edit
// leaves the base's snapshot in place, so the edit keeps exactly the tables
// it keeps without the beam request. The beam request's elimination starts
// from the base's checks, and its answer is a fresh planner's: cost, gap and
// States.
func TestBeamKeepsTheRetainedSolve(t *testing.T) {
	bm, err := models.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	const p = 8
	g1, g2 := bm.Build(bm.Batch), bm.Build(bm.Batch)
	mutateNode(t, g2, "enc0_self_wo", 1.5)
	spec := machine.GTX1080Ti(p)
	dp := Options{Policy: bm.Policy(p), Workers: 1}
	beam := dp
	beam.Method, beam.BeamWidth = "beam", 8
	solve := func(pl *Planner, g *graph.Graph, opts Options) *Result {
		t.Helper()
		res, err := pl.Solve(context.Background(), Request{G: g, Spec: spec, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	pl, ref := New(Config{}), New(Config{})
	solve(pl, g1, dp)
	solve(ref, g1, dp)
	got, want := solve(pl, g1, beam), solve(New(Config{}), g1, beam)
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) || math.Float64bits(got.Gap) != math.Float64bits(want.Gap) || got.States != want.States {
		t.Errorf("beam after a dp solve: cost %v, gap %v, %d states; a fresh planner's: cost %v, gap %v, %d states",
			got.Cost, got.Gap, got.States, want.Cost, want.Gap, want.States)
	}
	edit, refEdit := solve(pl, g2, dp), solve(ref, g2, dp)
	if !edit.DeltaResolve || edit.States != refEdit.States {
		t.Errorf("edit after a beam request: delta %v, %d states; without the beam request: delta %v, %d states",
			edit.DeltaResolve, edit.States, refEdit.DeltaResolve, refEdit.States)
	}
	requireSameStrategy(t, "edit after a beam request", edit, refEdit)
}

// DeltaCacheSize -1 disables snapshot retention entirely: a second
// same-topology solve runs cold and counts neither a re-solve nor a
// fallback.
func TestDeltaCacheDisabled(t *testing.T) {
	bm, err := models.ByName("rnnlm")
	if err != nil {
		t.Fatal(err)
	}
	const p = 8
	g1 := bm.Build(bm.Batch)
	g2 := bm.Build(bm.Batch)
	g2.Nodes[1].FlopsPerPoint *= 2
	opts := Options{Policy: bm.Policy(p)}
	spec := machine.GTX1080Ti(p)
	pl := New(Config{DeltaCacheSize: -1})
	if _, err := pl.Solve(context.Background(), Request{G: g1, Spec: spec, Opts: opts}); err != nil {
		t.Fatal(err)
	}
	res, err := pl.Solve(context.Background(), Request{G: g2, Spec: spec, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaResolve {
		t.Error("DeltaCacheSize -1 still produced a delta re-solve")
	}
	if st := pl.Stats(); st.DeltaResolves != 0 || st.DeltaFallbacks != 0 {
		t.Errorf("delta counters moved with the cache disabled: %+v", st)
	}
}

// The sweep workload's edit — one FLOPs density scaled by 1+1/4096 on the
// Transformer at p=32 — changes only what that node's TL row reads, so it
// dirties that one vertex and no edge class: its TX tables read the node's
// spaces and tensor maps, not its FLOPs. The re-solve fills the 38 positions
// whose table keys that vertex's TL row reaches; positions and states are
// pinned by equality, and it must match a cold solve bit for bit.
func TestTLOnlyEditDirtiesOneVertex(t *testing.T) {
	bm, err := models.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	const p = 32
	spec, opts := machine.GTX1080Ti(p), Options{Policy: bm.Policy(p)}
	build := func(factor float64) *cost.Model {
		g := bm.Build(bm.Batch)
		mutateNode(t, g, "enc0_self_wo", factor)
		m, err := cost.NewModel(g, spec, opts.Policy)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	base, edited := build(1), build(1+1.0/4096)
	dirty := changedVertices(base, edited)
	ctx := context.Background()
	_, snap, err := core.SolveRetain(ctx, base, dpSeq(base, opts), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	re, _, err := core.SolveKeep(ctx, edited, dpSeq(edited, opts), snap, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dirty != 1 || re.Stats.DirtyPositions != 38 || re.Stats.States != 7_514_222 {
		t.Errorf("dirty vertices %d, positions %d, states %d; want 1, 38, 7514222",
			dirty, re.Stats.DirtyPositions, re.Stats.States)
	}
	cold, err := core.Solve(ctx, edited, dpSeq(edited, opts), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Cost != cold.Cost {
		t.Fatalf("re-solve cost %v, cold %v", re.Cost, cold.Cost)
	}
	for v := range cold.Strategy {
		if !re.Strategy[v].Equal(cold.Strategy[v]) {
			t.Fatalf("node %d: re-solve %v, cold %v", v, re.Strategy[v], cold.Strategy[v])
		}
	}
}

// The same edit on the eliminated models runDP solves: elimination keeps the
// edit's spread to that one vertex — its survivors may change, its
// neighbours' do not — at a FLOPs factor of 1+1/4096, 1+100/4096 and 1.5, and
// the re-solve matches a cold solve of the edited eliminated model bit for
// bit. Its states, the scan space of the 38 re-filled positions, are the same
// at every factor and 15 % of the full models' 7,514,222.
func TestTLOnlyEditDirtiesOneVertexEliminated(t *testing.T) {
	bm, err := models.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	const p = 32
	spec, opts := machine.GTX1080Ti(p), Options{Policy: bm.Policy(p)}
	ctx := context.Background()
	build := func(factor float64) *cost.Model {
		g := bm.Build(bm.Batch)
		mutateNode(t, g, "enc0_self_wo", factor)
		m, err := cost.NewModel(g, spec, opts.Policy)
		if err != nil {
			t.Fatal(err)
		}
		el, err := cost.Eliminate(ctx, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		return el.Model
	}
	base := build(1)
	_, snap, err := core.SolveRetain(ctx, base, dpSeq(base, opts), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const states = 1_163_548
	for _, factor := range []float64{1 + 1.0/4096, 1 + 100.0/4096, 1.5} {
		edited := build(factor)
		dirty := changedVertices(base, edited)
		re, _, err := core.SolveKeep(ctx, edited, dpSeq(edited, opts), snap, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if dirty != 1 || re.Stats.DirtyPositions != 38 || re.Stats.States != states {
			t.Errorf("factor %v: dirty vertices %d, positions %d, states %d; want 1, 38, %d",
				factor, dirty, re.Stats.DirtyPositions, re.Stats.States, states)
		}
		cold, err := core.Solve(ctx, edited, dpSeq(edited, opts), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(re.Cost) != math.Float64bits(cold.Cost) || !slices.Equal(re.Idx, cold.Idx) {
			t.Fatalf("factor %v: re-solve %v %v, cold %v %v", factor, re.Cost, re.Idx, cold.Cost, cold.Idx)
		}
	}
}

// Elimination is a function of the model, so the planner keeps the last
// one's survivors under its model fingerprint: a later request on that
// model — another method, width or budget — runs no vertex check and
// answers bit for bit as a planner that retains nothing. An edited graph,
// another p and another policy each eliminate, and with retention off every
// request does.
func TestRepeatModelRunsNoEliminationCheck(t *testing.T) {
	bm, err := models.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	g := bm.Build(bm.Batch)
	edited := bm.Build(bm.Batch)
	mutateNode(t, edited, "enc0_self_wo", 1.5)
	req := func(g *graph.Graph, p int, opts Options) Request {
		if opts.Policy == (itspace.EnumPolicy{}) {
			opts.Policy = bm.Policy(p)
		}
		opts.Workers = 1
		return Request{G: g, Spec: machine.GTX1080Ti(p), Opts: opts}
	}
	beam8 := Options{Method: "beam", BeamWidth: 8, GapTarget: -1}
	beam32 := Options{Method: "beam", BeamWidth: 32, GapTarget: -1}
	pl := New(Config{})
	for _, step := range []struct {
		label      string
		req        Request
		eliminates bool
	}{
		{"first request", req(g, 8, beam8), true},
		{"dp on the same model", req(g, 8, Options{}), false},
		{"another width", req(g, 8, beam32), false},
		{"another budget", req(g, 8, Options{MaxTableEntries: 1 << 26}), false},
		{"edited graph", req(edited, 8, Options{}), true},
		{"another p", req(g, 16, Options{}), true},
		{"another policy", req(g, 8, Options{Policy: itspace.EnumPolicy{MaxSplitDims: 2}}), true},
	} {
		before := pl.Stats().ElimChecks
		got, err := pl.Solve(context.Background(), step.req)
		if err != nil {
			t.Fatalf("%s: %v", step.label, err)
		}
		if ran := pl.Stats().ElimChecks - before; (ran > 0) != step.eliminates {
			t.Errorf("%s: %d elimination checks ran, want them to run: %v", step.label, ran, step.eliminates)
		}
		want, err := New(Config{DeltaCacheSize: -1}).Solve(context.Background(), step.req)
		if err != nil {
			t.Fatal(err)
		}
		requireSameStrategy(t, step.label, got, want)
		// A delta re-solve counts only the states of the tables it filled.
		if (!got.DeltaResolve && got.States != want.States) || math.Float64bits(got.Gap) != math.Float64bits(want.Gap) || got.KEffective != want.KEffective {
			t.Errorf("%s: %d states, gap %v, K %d; a planner retaining nothing: %d, %v, %d", step.label, got.States, got.Gap, got.KEffective, want.States, want.Gap, want.KEffective)
		}
	}

	off := New(Config{DeltaCacheSize: -1})
	for _, opts := range []Options{beam8, {}} {
		before := off.Stats().ElimChecks
		if _, err := off.Solve(context.Background(), req(g, 8, opts)); err != nil {
			t.Fatal(err)
		}
		if off.Stats().ElimChecks == before {
			t.Errorf("retention off, method %q: no elimination check ran", opts.Method)
		}
	}
}
