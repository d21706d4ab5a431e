package planner

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/machine"
	"pase/internal/mcmc"
	"pase/internal/models"
	"pase/internal/seq"
	"pase/internal/strategies"
)

// TestMethodDPByteIdenticalToDirectOnPaperBenchmarks pins the acceptance
// criterion: Method "dp" through the planner returns byte-identical
// strategies and costs to the raw pipeline on all four paper benchmarks.
func TestMethodDPByteIdenticalToDirectOnPaperBenchmarks(t *testing.T) {
	const p = 8
	for _, bm := range models.Benchmarks() {
		g := bm.Build(bm.Batch)
		spec := machine.GTX1080Ti(p)
		pol := bm.Policy(p)

		m, err := cost.NewModel(g, spec, pol)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		want, err := core.Solve(context.Background(), m, seq.Generate(g), core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}

		pl := New(Config{})
		got, err := pl.Solve(context.Background(), Request{
			G: bm.Build(bm.Batch), Spec: spec,
			Opts: Options{Policy: pol, Method: "dp"},
		})
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		if got.Cost != want.Cost {
			t.Fatalf("%s: planner dp cost %v != direct %v", bm.Name, got.Cost, want.Cost)
		}
		if !reflect.DeepEqual(got.Strategy, want.Strategy) {
			t.Fatalf("%s: planner dp strategy differs from direct solve", bm.Name)
		}
		if got.Method != "dp" {
			t.Fatalf("%s: Method = %q, want dp", bm.Name, got.Method)
		}
	}
}

func TestBaselineMethodsMatchOneOffFunctions(t *testing.T) {
	const p = 16
	g := models.AlexNet(128)
	spec := machine.GTX1080Ti(p)
	pl := New(Config{})

	for _, method := range []string{"dataparallel", "expert:cnn"} {
		res, err := pl.Solve(context.Background(), Request{G: g, Spec: spec, Opts: Options{Method: method}})
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		want, err := strategies.ForMethod(method, g, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Strategy, want) {
			t.Fatalf("%s: strategy differs from the one-off function", method)
		}
		wantCost, err := cost.EvalStrategy(g, spec, want)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != wantCost {
			t.Fatalf("%s: cost %v != direct evaluation %v", method, res.Cost, wantCost)
		}
		if res.Method != method {
			t.Fatalf("Method = %q, want %q", res.Method, method)
		}
		// Baselines never build a model.
		if st := pl.Stats(); st.ModelBuilds != 0 {
			t.Fatalf("%s built %d models, want 0", method, st.ModelBuilds)
		}
	}

	// Second identical baseline request: a cache hit like any other method.
	res, err := pl.Solve(context.Background(), Request{G: g, Spec: spec, Opts: Options{Method: "dataparallel"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("repeated baseline request was not served from cache")
	}
}

func TestMCMCMethodMatchesDirectSearchAndCaches(t *testing.T) {
	const p = 8
	g := models.AlexNet(128)
	spec := machine.GTX1080Ti(p)
	opts := Options{Method: "mcmc", MCMC: mcmc.Options{Seed: 7, MaxIters: 20000}}

	// Direct oracle: same model, same data-parallel seed, same chain options.
	m, err := cost.NewModel(g, spec, opts.Policy)
	if err != nil {
		t.Fatal(err)
	}
	initStrat, err := strategies.ForMethod("dataparallel", g, p)
	if err != nil {
		t.Fatal(err)
	}
	init, err := m.IdxFromStrategy(initStrat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mcmc.Search(context.Background(), m, init, opts.MCMC)
	if err != nil {
		t.Fatal(err)
	}

	pl := New(Config{})
	res, err := pl.Solve(context.Background(), Request{G: g, Spec: spec, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != want.BestCost {
		t.Fatalf("planner mcmc cost %v != direct %v", res.Cost, want.BestCost)
	}
	if res.Method != "mcmc" || res.States != int64(want.Iters) {
		t.Fatalf("method/states = %q/%d, want mcmc/%d", res.Method, res.States, want.Iters)
	}

	// The chain is deterministic per seed, so it caches like any method.
	again, err := pl.Solve(context.Background(), Request{G: g, Spec: spec, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Cost != res.Cost {
		t.Fatalf("repeated mcmc request not served from cache (cached=%v)", again.Cached)
	}

	// A different seed is a different request.
	other := opts
	other.MCMC.Seed = 8
	res2, err := pl.Solve(context.Background(), Request{G: g, Spec: spec, Opts: other})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached {
		t.Fatal("different mcmc seed hit the other seed's cache entry")
	}
	if res2.Fingerprint == res.Fingerprint {
		t.Fatal("different mcmc seeds share a fingerprint")
	}
}

func TestMethodDistinctFingerprints(t *testing.T) {
	base := alexReq(8)
	seen := map[string]string{}
	for _, method := range []string{"dp", "mcmc", "dataparallel", "expert:cnn"} {
		req := base
		req.Opts.Method = method
		_, fp := Fingerprints(req)
		s := fp.String()
		for other, ofp := range seen {
			if ofp == s {
				t.Fatalf("methods %q and %q share fingerprint %s", method, other, s)
			}
		}
		seen[method] = s
	}
	// Method "dp" and the empty default are the same request — and keep the
	// fingerprint requests had before the Method field existed.
	var dflt Request = base
	_, a := Fingerprints(dflt)
	withDP := base
	withDP.Opts.Method = "dp"
	_, b := Fingerprints(withDP)
	if a != b {
		t.Fatal("Method \"dp\" changed the default fingerprint")
	}
	// MCMC options are normalized: zero Options and the explicit defaults
	// share one identity.
	mc1, mc2 := base, base
	mc1.Opts.Method = "mcmc"
	mc2.Opts.Method = "mcmc"
	mc2.Opts.MCMC = mcmc.Options{MaxIters: 250_000, MinIters: 2_000}
	_, f1 := Fingerprints(mc1)
	_, f2 := Fingerprints(mc2)
	if f1 != f2 {
		t.Fatal("zero mcmc options and explicit defaults fingerprint differently")
	}
}

func TestUnknownMethodRejectedBeforeSolving(t *testing.T) {
	pl := New(Config{})
	for _, method := range []string{"genetic", "expert:", "expert:gnn", "DP"} {
		req := alexReq(8)
		req.Opts.Method = method
		if _, err := pl.Solve(context.Background(), req); err == nil {
			t.Fatalf("method %q was accepted", method)
		}
	}
	// A bad MCMC seed strategy fails the same fast validation — not after a
	// full model build.
	for _, init := range []string{"expert:gnn", "dp", "mcmc", "nonsense"} {
		req := alexReq(8)
		req.Opts.Method = "mcmc"
		req.Opts.MCMCInit = init
		if _, err := pl.Solve(context.Background(), req); err == nil {
			t.Fatalf("MCMCInit %q was accepted", init)
		}
	}
	if st := pl.Stats(); st.ResultMisses != 0 || st.ModelBuilds != 0 {
		t.Fatalf("invalid methods reached the request path: %+v", st)
	}
	// An explicit compare method list must name every method.
	if _, err := pl.Compare(context.Background(), CompareRequest{
		G: models.AlexNet(128), Spec: machine.GTX1080Ti(8), Methods: []string{"", "dp"},
	}); err == nil {
		t.Fatal("empty method in an explicit compare list was accepted")
	}
	// A method failing at solve time fails its entry only, a family (even an
	// unknown one) seeds the mcmc entry alone, and a zero Batch simulates one
	// sample per step.
	cmp, err := pl.Compare(context.Background(), CompareRequest{
		G: models.AlexNet(128), Spec: machine.GTX1080Ti(8), Opts: Options{MaxTableEntries: 1}, Methods: []string{"dataparallel", "dp"}, Family: "gnn",
	})
	if err != nil || cmp.Entries[0].Step.Throughput != 1/cmp.Entries[0].Step.StepSeconds || !errors.Is(cmp.Entries[1].Err, core.ErrOOM) {
		t.Fatalf("dp under a 1-entry budget: (%+v, %v), want a throughput of one sample per step and dp's entry failing with ErrOOM", cmp, err)
	}
}

func TestCompareProducesPaperTable(t *testing.T) {
	const p = 16
	bm, err := models.ByName("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	g := bm.Build(bm.Batch)
	pl := New(Config{})
	cmp, err := pl.Compare(context.Background(), CompareRequest{
		G:      g,
		Spec:   machine.GTX1080Ti(p),
		Opts:   Options{Policy: bm.Policy(p), MCMC: mcmc.Options{Seed: 1, MaxIters: 20000}},
		Batch:  bm.Batch,
		Family: bm.Family,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Baseline != "dataparallel" {
		t.Fatalf("baseline = %q", cmp.Baseline)
	}
	wantMethods := []string{"dataparallel", "expert:cnn", "mcmc", "beam", "dp"}
	if len(cmp.Entries) != len(wantMethods) {
		t.Fatalf("got %d entries, want %d", len(cmp.Entries), len(wantMethods))
	}
	byMethod := map[string]*CompareEntry{}
	for i := range cmp.Entries {
		e := &cmp.Entries[i]
		if e.Method != wantMethods[i] {
			t.Fatalf("entry %d method %q, want %q", i, e.Method, wantMethods[i])
		}
		if e.Err != nil {
			t.Fatalf("%s: %v", e.Method, e.Err)
		}
		if e.Result == nil || e.Step.StepSeconds <= 0 || e.Speedup <= 0 {
			t.Fatalf("%s: incomplete entry %+v", e.Method, e)
		}
		byMethod[e.Method] = e
	}
	// The paper's headline ordering: DP at least as good as every baseline,
	// strictly better than data parallelism; the baseline's own speedup is 1.
	if sp := byMethod["dataparallel"].Speedup; sp != 1 {
		t.Fatalf("baseline speedup = %v, want exactly 1", sp)
	}
	dp := byMethod["dp"]
	if dp.Speedup <= 1 {
		t.Fatalf("dp speedup over data parallelism = %v, want > 1", dp.Speedup)
	}
	for _, m := range wantMethods[:4] {
		if dp.Result.Cost > byMethod[m].Result.Cost*(1+1e-9) {
			t.Fatalf("dp cost %v worse than %s cost %v", dp.Result.Cost, m, byMethod[m].Result.Cost)
		}
	}
	// Compare reuses the planner's caches: a second comparison is all hits.
	before := pl.Stats()
	cmp2, err := pl.Compare(context.Background(), CompareRequest{
		G:      g,
		Spec:   machine.GTX1080Ti(p),
		Opts:   Options{Policy: bm.Policy(p), MCMC: mcmc.Options{Seed: 1, MaxIters: 20000}},
		Batch:  bm.Batch,
		Family: bm.Family,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := pl.Stats()
	if after.Solves != before.Solves {
		t.Fatalf("repeat comparison re-solved: %d -> %d", before.Solves, after.Solves)
	}
	for _, e := range cmp2.Entries {
		if !e.Result.Cached {
			t.Fatalf("repeat comparison entry %s not cached", e.Method)
		}
	}
}

// Compare's methods fan out concurrently and each model-building method
// builds its own cold model: three builds for dp, beam and mcmc.
func TestCompareBuildsOneModelPerMethod(t *testing.T) {
	// The fan-out is GOMAXPROCS wide; keep it concurrent on one-CPU runners.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const p = 32
	bm, err := models.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	g := bm.Build(bm.Batch)
	spec := machine.GTX1080Ti(p)

	pl := New(Config{})
	cmp, err := pl.Compare(context.Background(), CompareRequest{
		G:       g,
		Spec:    spec,
		Opts:    Options{Policy: bm.Policy(p), BeamWidth: 8, GapTarget: -1, MCMC: mcmc.Options{Seed: 1, MaxIters: 2000}},
		Methods: []string{"dp", "beam", "mcmc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range cmp.Entries {
		if e.Err != nil {
			t.Fatalf("%s: %v", e.Method, e.Err)
		}
	}
	st := pl.Stats()
	if st.ModelBuilds != 3 {
		t.Fatalf("ModelBuilds = %d, want 3 (one per model-building method)", st.ModelBuilds)
	}
}
