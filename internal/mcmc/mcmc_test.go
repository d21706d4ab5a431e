package mcmc

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/seq"
	"pase/internal/strategies"
)

func chainGraph(n int) *graph.Graph {
	g := graph.New()
	var prev *graph.Node
	rng := rand.New(rand.NewSource(42))
	sizes := []int64{32, 64, 128}
	for i := 0; i < n; i++ {
		nd := &graph.Node{
			Name: "fc",
			Op:   graph.OpFC,
			Space: itspace.Space{
				{Name: "b", Size: 64},
				{Name: "n", Size: sizes[rng.Intn(3)]},
				{Name: "c", Size: sizes[rng.Intn(3)]},
			},
			Output:        graph.TensorRef{Map: []int{0, 1}},
			Params:        []graph.TensorRef{{Map: []int{1, 2}, Param: true}},
			FlopsPerPoint: 2,
		}
		if prev != nil {
			nd.Inputs = []graph.TensorRef{{Map: []int{0, 2}}}
		}
		g.AddNode(nd)
		if prev != nil {
			g.AddEdge(prev, nd)
		}
		prev = nd
	}
	return g
}

func model(t *testing.T, n, p int) *cost.Model {
	t.Helper()
	m, err := cost.NewModel(chainGraph(n), machine.Uniform(p, 1e12, 1e10), itspace.EnumPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// dataParallel is m's data-parallel strategy as configuration indices: the
// chain's default seed, built as runMCMC builds it.
func dataParallel(t testing.TB, m *cost.Model) []int {
	t.Helper()
	idx, err := m.IdxFromStrategy(strategies.DataParallel(m.G, m.P()))
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestSearchNeverWorseThanInit(t *testing.T) {
	m := model(t, 6, 8)
	init := dataParallel(t, m)
	initCost := m.EvalIdx(init)
	res, err := Search(context.Background(), m, init, Options{Seed: 1, MaxIters: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost > initCost+1e-9 {
		t.Fatalf("MCMC worsened: %v > %v", res.BestCost, initCost)
	}
}

func TestSearchDeterministicWithSeed(t *testing.T) {
	m := model(t, 5, 8)
	init := dataParallel(t, m)
	a, err := Search(context.Background(), m, init, Options{Seed: 7, MaxIters: 5000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(context.Background(), m, init, Options{Seed: 7, MaxIters: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if a.BestCost != b.BestCost || a.Iters != b.Iters || a.Accepted != b.Accepted {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestSearchApproachesDPOptimum(t *testing.T) {
	m := model(t, 5, 8)
	opt, err := core.Solve(context.Background(), m, seq.Generate(m.G), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	init := dataParallel(t, m)
	res, err := Search(context.Background(), m, init, Options{Seed: 3, MaxIters: 200000, MinIters: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost < opt.Cost-1e-6*opt.Cost {
		t.Fatalf("MCMC beat the proven optimum: %v < %v", res.BestCost, opt.Cost)
	}
	// MCMC is a meta-heuristic and may sit in a local minimum (that is the
	// paper's point); on a small chain it should still land within a small
	// factor of the DP optimum.
	if res.BestCost > 5*opt.Cost {
		t.Fatalf("MCMC too far from optimum: %v vs %v", res.BestCost, opt.Cost)
	}
}

func TestSearchStopsOnNoImprovement(t *testing.T) {
	m := model(t, 4, 4)
	init := dataParallel(t, m)
	res, err := Search(context.Background(), m, init, Options{Seed: 5, MaxIters: 250000, MinIters: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters >= 250000 {
		t.Fatalf("stop rule never fired: %d iters", res.Iters)
	}
}

func TestSearchValidatesInput(t *testing.T) {
	m := model(t, 4, 4)
	if _, err := Search(context.Background(), m, []int{0}, Options{}); err == nil {
		t.Fatal("short init accepted")
	}
	bad := make([]int, m.G.Len())
	bad[0] = 1 << 30
	if _, err := Search(context.Background(), m, bad, Options{}); err == nil {
		t.Fatal("out-of-range init accepted")
	}
}

func TestSearchBestCostIsExact(t *testing.T) {
	m := model(t, 6, 8)
	init := dataParallel(t, m)
	res, err := Search(context.Background(), m, init, Options{Seed: 11, MaxIters: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.EvalIdx(res.BestIdx); math.Abs(got-res.BestCost) > 1e-9*got {
		t.Fatalf("reported %v, recomputed %v", res.BestCost, got)
	}
}

// BenchmarkSearchProposals tracks per-proposal cost on a long chain, where
// the O(deg(v)) incidence-list NodeDelta matters most: an all-edges scan
// would make every proposal O(|E|) regardless of the touched node.
func BenchmarkSearchProposals(b *testing.B) {
	m, err := cost.NewModel(chainGraph(64), machine.Uniform(16, 1e12, 1e10), itspace.EnumPolicy{})
	if err != nil {
		b.Fatal(err)
	}
	init := dataParallel(b, m)
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		res, err := Search(context.Background(), m, init, Options{Seed: int64(i), MaxIters: 20000, MinIters: 20000})
		if err != nil {
			b.Fatal(err)
		}
		iters += res.Iters
	}
	b.ReportMetric(float64(iters)/float64(b.N), "proposals/op")
}
