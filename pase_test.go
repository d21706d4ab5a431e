package pase

import (
	"context"
	"errors"
	"testing"
)

// solve runs one request over (g, spec) through the package-default planner.
func solve(g *Graph, spec Machine, opts Options) (*Result, error) {
	return Solve(context.Background(), SolveRequest{G: g, Spec: spec, Opts: opts})
}

// solveFresh runs one request over (g, spec) through a fresh planner, so it
// builds its model and solves with no cache to hit.
func solveFresh(g *Graph, spec Machine, opts Options) (*Result, error) {
	return NewPlanner(PlannerConfig{}).Solve(context.Background(), SolveRequest{G: g, Spec: spec, Opts: opts})
}

// solveModel solves m's graph, machine and policy through a fresh planner.
func solveModel(m *Model, opts Options) (*Result, error) {
	opts.Policy = m.Policy
	return solveFresh(m.G, m.Spec, opts)
}

// baseline returns a baseline method's fixed strategy for m's graph.
func baseline(t testing.TB, m *Model, method string) Strategy {
	t.Helper()
	res, err := solveModel(m, Options{Method: method})
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	return res.Strategy
}

func TestSolveOnAlexNet(t *testing.T) {
	g := AlexNet(128)
	res, err := solve(g, GTX1080Ti(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost <= 0 || len(res.Strategy) != g.Len() {
		t.Fatalf("bad result: %+v", res)
	}
	if err := res.Strategy.Validate(g, 8); err != nil {
		t.Fatal(err)
	}
}

// The package-default planner retains no dp solve: an edit of a graph solved
// through Solve solves cold.
func TestSolveRetainsNoDeltaBase(t *testing.T) {
	edit := AlexNet(96)
	edit.Nodes[1].FlopsPerPoint *= 2
	for i, g := range []*Graph{AlexNet(96), edit} {
		res, err := solve(g, GTX1080Ti(8), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.DeltaResolve {
			t.Fatalf("solve %d: DeltaResolve through the package-default planner", i)
		}
	}
}

func TestSolveBeatsBaselinesOnEveryBenchmark(t *testing.T) {
	// The paper's headline claim (§IV): PaSE's strategies outperform data
	// parallelism in all cases, and do at least as well as the expert
	// strategies and the MCMC search under the cost model.
	const p = 16
	for _, bm := range Benchmarks() {
		g := bm.Build(bm.Batch)
		m, err := NewModel(g, GTX1080Ti(p), bm.Policy(p))
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		res, err := solveModel(m, Options{Policy: bm.Policy(p)})
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		dpCost, err := m.Eval(baseline(t, m, "dataparallel"))
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		if res.Cost >= dpCost {
			t.Fatalf("%s: PaSE %.3e not below data parallelism %.3e", bm.Name, res.Cost, dpCost)
		}
		expCost, err := m.Eval(baseline(t, m, "expert:"+bm.Family))
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		if res.Cost > expCost*(1+1e-9) {
			t.Fatalf("%s: PaSE %.3e worse than expert %.3e", bm.Name, res.Cost, expCost)
		}
	}
}

func TestBreadthFirstOOMsOnInception(t *testing.T) {
	// Paper Table I: BF ordering runs out of memory on InceptionV3.
	g := InceptionV3(128)
	_, err := solve(g, GTX1080Ti(8), Options{BreadthFirst: true})
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("want ErrOOM, got %v", err)
	}
}

func TestBreadthFirstMatchesOnAlexNet(t *testing.T) {
	// Paper Table I: on path graphs both orderings find the optimum.
	g := AlexNet(128)
	a, err := solve(g, GTX1080Ti(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := solve(g, GTX1080Ti(8), Options{BreadthFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Fatalf("orderings disagree: %v vs %v", a.Cost, b.Cost)
	}
}

func TestMCMCFromExpert(t *testing.T) {
	g := AlexNet(128)
	m, err := NewModel(g, GTX1080Ti(8), EnumPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	expCost, err := m.Eval(baseline(t, m, "expert:cnn"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := solveModel(m, Options{Method: "mcmc", MCMCInit: "expert:cnn", MCMC: MCMCOptions{Seed: 1, MaxIters: 30000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > expCost {
		t.Fatalf("MCMC worsened its initial candidate: %v > %v", res.Cost, expCost)
	}
	best, err := solveModel(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost < best.Cost-1e-6*best.Cost {
		t.Fatalf("MCMC beat the DP optimum: %v < %v", res.Cost, best.Cost)
	}
}

func TestSimulateAndSpeedup(t *testing.T) {
	g := AlexNet(128)
	res, err := solve(g, RTX2080Ti(32), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := solve(g, RTX2080Ti(32), Options{Method: "dataparallel"})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SimulatedSpeedup(g, res.Strategy, dp.Strategy, RTX2080Ti(32), 128)
	if err != nil {
		t.Fatal(err)
	}
	if sp <= 1 {
		t.Fatalf("PaSE speedup over DP = %.3f on 2080Ti, want > 1", sp)
	}
	step, err := Simulate(g, res.Strategy, RTX2080Ti(32), 128)
	if err != nil {
		t.Fatal(err)
	}
	if step.Throughput <= 0 {
		t.Fatalf("bad step: %+v", step)
	}
}

func TestOrderingStats(t *testing.T) {
	g := InceptionV3(128)
	genM, bfM, maxK, err := OrderingStats(g, GTX1080Ti(8), EnumPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if genM+1 > 3 {
		t.Fatalf("GENERATESEQ |D∪{v}| = %d, paper says ≤ 3", genM+1)
	}
	if bfM <= genM {
		t.Fatalf("BF M=%d should exceed GENERATESEQ M=%d", bfM, genM)
	}
	// Paper §III-C: K between 10 and 30 per vertex at p=8... MaxK is the max.
	if maxK < 10 || maxK > 100 {
		t.Fatalf("K = %d out of the paper's reported range", maxK)
	}
}

func TestPlannerCacheHitSpeedupOnTransformer(t *testing.T) {
	// Serving-layer acceptance: a second identical request through
	// Planner.Solve is a cache hit — no new model build or DP run, ≥100×
	// faster than the cold solve, byte-identical in strategy and cost.
	const p = 32
	bm, err := BenchmarkByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	g := bm.Build(bm.Batch)
	pl := NewPlanner(PlannerConfig{})
	ctx := context.Background()
	req := SolveRequest{G: g, Spec: GTX1080Ti(p), Opts: Options{Policy: bm.Policy(p)}}

	cold, err := pl.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("cold solve reported Cached")
	}

	warm, err := pl.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second identical request was not a cache hit")
	}
	st := pl.Stats()
	if st.Solves != 1 || st.ModelBuilds != 1 {
		t.Fatalf("cache hit ran new work: %d solves, %d model builds", st.Solves, st.ModelBuilds)
	}
	if warm.Cost != cold.Cost {
		t.Fatalf("cached cost %v != cold cost %v", warm.Cost, cold.Cost)
	}
	for v := range cold.Strategy {
		if !cold.Strategy[v].Equal(warm.Strategy[v]) {
			t.Fatalf("node %d: cached config %v != cold %v", v, warm.Strategy[v], cold.Strategy[v])
		}
	}
	// ≥100× wall-clock: the warm path is a lock + LRU lookup + clone, the
	// cold path a multi-second DP. Take the best of a few warm samples to
	// keep scheduler noise out of the ratio.
	best := warm.Timings.Total
	for i := 0; i < 4; i++ {
		r, err := pl.Solve(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if r.Timings.Total < best {
			best = r.Timings.Total
		}
	}
	if best*100 > cold.Timings.Total {
		t.Fatalf("cache hit %v not ≥100× faster than cold solve %v", best, cold.Timings.Total)
	}
}
