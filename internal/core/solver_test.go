package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/seq"
	"pase/internal/strategies"
)

// randomDNNGraph builds a random connected DAG of FC-like layers with
// power-of-two extents, giving the cost model genuine structure (reduction
// dims, parameters, redistribution) so optimality tests are meaningful.
func randomDNNGraph(rng *rand.Rand, n int) *graph.Graph {
	return randomLayerGraph(rng, n, []int64{16, 32, 64, 128})
}

// randomLayerGraph is randomDNNGraph with the extents drawn from sizes: small
// extents (1, 2) cap how far a dimension splits, so configuration counts
// vary from vertex to vertex down to K = 1.
func randomLayerGraph(rng *rand.Rand, n int, sizes []int64) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		sp := itspace.Space{
			{Name: "b", Size: sizes[rng.Intn(len(sizes))]},
			{Name: "n", Size: sizes[rng.Intn(len(sizes))]},
			{Name: "c", Size: sizes[rng.Intn(len(sizes))]},
		}
		g.AddNode(&graph.Node{
			Name:          "fc",
			Op:            graph.OpFC,
			Space:         sp,
			Output:        graph.TensorRef{Map: []int{0, 1}},
			Params:        []graph.TensorRef{{Map: []int{1, 2}, Param: true}},
			FlopsPerPoint: 2,
		})
	}
	for i := 1; i < n; i++ {
		// Connect to one earlier node, sometimes two (branch/join shapes).
		parents := []int{rng.Intn(i)}
		if i >= 2 && rng.Intn(3) == 0 {
			p2 := rng.Intn(i)
			if p2 != parents[0] {
				parents = append(parents, p2)
			}
		}
		for _, p := range parents {
			g.Nodes[i].Inputs = append(g.Nodes[i].Inputs, graph.TensorRef{Map: []int{0, 2}})
			g.AddEdge(g.Nodes[p], g.Nodes[i])
		}
	}
	return g
}

func newModel(t testing.TB, g *graph.Graph, p int) *cost.Model {
	t.Helper()
	m, err := cost.NewModel(g, machine.Uniform(p, 1e12, 1e10), itspace.EnumPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The central correctness anchor: on random graphs the efficient DP
// (GENERATESEQ ordering), the naive breadth-first DP, and exhaustive brute
// force must all find the same minimum cost.
func TestDPOptimalityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDNNGraph(rng, 3+rng.Intn(3))
		m, err := cost.NewModel(g, machine.Uniform(4, 1e12, 1e10), itspace.EnumPolicy{})
		if err != nil {
			return false
		}
		dp, err := Solve(context.Background(), m, seq.Generate(m.G), Options{})
		if err != nil {
			return false
		}
		nv, err := Solve(context.Background(), m, seq.BFS(m.G), Options{})
		if err != nil {
			return false
		}
		bf, err := bruteForce(m)
		if err != nil {
			return false
		}
		tol := 1e-6 * math.Max(1, bf.Cost)
		return math.Abs(dp.Cost-bf.Cost) <= tol && math.Abs(nv.Cost-bf.Cost) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDPExtractedStrategyRealizesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		g := randomDNNGraph(rng, 5+rng.Intn(4))
		m := newModel(t, g, 8)
		res, err := Solve(context.Background(), m, seq.Generate(m.G), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Strategy.Validate(g, 8); err != nil {
			t.Fatalf("invalid strategy: %v", err)
		}
		ev := m.EvalIdx(res.Idx)
		if math.Abs(ev-res.Cost) > 1e-6*math.Max(1, ev) {
			t.Fatalf("strategy cost %v != DP cost %v", ev, res.Cost)
		}
	}
}

func TestDPLowerBoundsRandomStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomDNNGraph(rng, 7)
	m := newModel(t, g, 8)
	res, err := Solve(context.Background(), m, seq.Generate(m.G), Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, g.Len())
	for trial := 0; trial < 500; trial++ {
		for v := range idx {
			idx[v] = rng.Intn(m.K(v))
		}
		if c := m.EvalIdx(idx); c < res.Cost-1e-6*res.Cost {
			t.Fatalf("random strategy %v beats DP minimum %v", c, res.Cost)
		}
	}
}

func TestDPBeatsOrMatchesDataParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomDNNGraph(rng, 8)
	m := newModel(t, g, 16)
	res, err := Solve(context.Background(), m, seq.Generate(m.G), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dpIdx, err := m.IdxFromStrategy(strategies.DataParallel(m.G, m.P()))
	if err != nil {
		t.Fatal(err)
	}
	if dpCost := m.EvalIdx(dpIdx); res.Cost > dpCost+1e-9 {
		t.Fatalf("solver cost %v worse than data parallelism %v", res.Cost, dpCost)
	}
}

func TestOOMGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomDNNGraph(rng, 8)
	m := newModel(t, g, 8)
	_, err := Solve(context.Background(), m, seq.Generate(m.G), Options{MaxTableEntries: 2})
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("want ErrOOM, got %v", err)
	}
}

// A solve whose tables alone outgrow the budget must fail in the sizing
// pre-pass, before any table is filled: the GPT-scale decoder, whose exact DP
// used to fill tables for seconds before tripping the budget, returns ErrOOM
// in milliseconds.
//
// Kept by hand: no mutant reaches a timing bar.
func TestDoomedSolveFailsBeforeFilling(t *testing.T) {
	m, err := gptDeepModel()
	if err != nil {
		t.Fatal(err)
	}
	sq := seq.Generate(m.G)
	start := time.Now()
	_, err = Solve(context.Background(), m, sq, Options{Workers: 1})
	if elapsed := time.Since(start); !errors.Is(err, ErrOOM) || elapsed > 50*time.Millisecond {
		t.Fatalf("want ErrOOM within 50ms, got %v after %v", err, elapsed)
	}
}

// The budget's edge. A paper model, and the model dead-end elimination leaves
// of it, solves with exactly its unbudgeted peak live entries (and one more)
// as the budget, by the same fill: the same result, the same reported peak,
// the same States. One entry below the peak it fails in the sizing pre-pass:
// the budget counts nominal tables only, and nothing a vertex can go without.
// Admit, which runs that pre-pass alone, says so at each of the three budgets.
func TestBudgetEdgeAtPeakLiveEntries(t *testing.T) {
	for _, name := range []string{"alexnet", "inceptionv3", "rnnlm", "transformer"} {
		full := paperModel(t, name, 8)
		el, err := cost.Eliminate(context.Background(), full, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			label string
			m     *cost.Model
		}{{name, full}, {name + " eliminated", el.Model}} {
			m := c.m
			t.Run(c.label, func(t *testing.T) {
				sq := seq.Generate(m.G)
				free, err := Solve(context.Background(), m, sq, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				peak := free.Stats.PeakLiveEntries
				for _, budget := range []int64{peak, peak + 1} {
					opts := Options{Workers: 1, MaxTableEntries: budget}
					if err := Admit(m, sq, opts); err != nil {
						t.Fatalf("Admit at budget %d (peak %d): %v", budget, peak, err)
					}
					got, err := Solve(context.Background(), m, sq, opts)
					if err != nil {
						t.Fatalf("budget %d (peak %d): %v", budget, peak, err)
					}
					requireSameResult(t, fmt.Sprintf("budget %d", budget), got, free)
					if got.Stats.PeakLiveEntries != peak || got.Stats.States != free.Stats.States {
						t.Fatalf("budget %d: peak %d states %d, unbudgeted %d / %d", budget,
							got.Stats.PeakLiveEntries, got.Stats.States, peak, free.Stats.States)
					}
				}
				under := Options{Workers: 1, MaxTableEntries: peak - 1}
				if err := Admit(m, sq, under); !errors.Is(err, ErrOOM) {
					t.Fatalf("Admit at budget %d under a peak of %d: %v, want ErrOOM", peak-1, peak, err)
				}
				if _, err := Solve(context.Background(), m, sq, under); !errors.Is(err, ErrOOM) {
					t.Fatalf("budget %d under a peak of %d: %v, want ErrOOM", peak-1, peak, err)
				}
			})
		}
	}
}

// No request that solved before the quotient scan may fail after it: the
// Transformer at p=32, given as its budget exactly the peak the solver
// reported when only digits without rows shared scans (1 835 164 entries),
// still solves, to the same result: tables are charged at their nominal size
// and positions that share one are charged once, so the peak has only fallen
// since.
func TestSolvesAtThePeakOfTheUnquotientedScan(t *testing.T) {
	const unquotientedPeak = 1_835_164
	m := transformerP32Model(t)
	sq := seq.Generate(m.G)
	free, err := Solve(context.Background(), m, sq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(context.Background(), m, sq, Options{MaxTableEntries: unquotientedPeak})
	if err != nil {
		t.Fatalf("budget %d: %v", unquotientedPeak, err)
	}
	requireSameResult(t, "at the unquotiented peak", got, free)
	if got.Stats.PeakLiveEntries > unquotientedPeak {
		t.Fatalf("peak %d under budget %d", got.Stats.PeakLiveEntries, unquotientedPeak)
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomDNNGraph(rng, 4)
	m := newModel(t, g, 4)
	if _, err := Solve(context.Background(), m, &seq.Sequence{Order: []int{0}}, Options{}); err == nil {
		t.Fatal("short ordering accepted")
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomDNNGraph(rng, 6)
	m := newModel(t, g, 8)
	res, err := Solve(context.Background(), m, seq.Generate(m.G), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.States <= 0 || res.Stats.TotalEntries <= 0 || res.Stats.MaxTable <= 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
	if res.Stats.MaxDepSize != res.Seq.MaxDepSize() {
		t.Fatalf("MaxDepSize mismatch")
	}
}

// Each kernel stamps its own stages, once each, so they are positive where
// the kernel has the stage, zero where it has not, and sum to no more than
// the call's wall time.
func TestStageTimesStamped(t *testing.T) {
	m := newModel(t, randomDNNGraph(rand.New(rand.NewSource(8)), 6), 8)
	sq := seq.Generate(m.G)
	check := func(name string, s StageTimes, wall time.Duration, has, hasNot []time.Duration) {
		t.Helper()
		if sum := s.Plan + s.Fill + s.Scan + s.Join + s.Keep + s.BackSub; sum > wall {
			t.Errorf("%s: stages %+v sum to %v, more than the call's %v", name, s, sum, wall)
		}
		if slices.Min(has) <= 0 || slices.Max(hasNot) != 0 {
			t.Errorf("%s: stages %+v, want each it runs stamped and no other", name, s)
		}
	}
	start := time.Now()
	res, err := Solve(context.Background(), m, sq, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats.Stages
	check("exact", s, time.Since(start), []time.Duration{s.Plan, s.Fill, s.Scan, s.BackSub}, []time.Duration{s.Join, s.Keep})

	start = time.Now()
	br, err := SolveBeam(context.Background(), m, sq, BeamOptions{Width: 2, GapTarget: -1})
	if err != nil {
		t.Fatal(err)
	}
	s = br.Stats.Stages
	check("beam", s, time.Since(start), []time.Duration{s.Plan, s.Join, s.Keep, s.BackSub}, []time.Duration{s.Fill, s.Scan})
}

func TestSingleNodeGraph(t *testing.T) {
	g := graph.New()
	g.AddNode(&graph.Node{
		Name:          "fc",
		Space:         itspace.Space{{Name: "b", Size: 64}, {Name: "n", Size: 64}, {Name: "c", Size: 64}},
		Output:        graph.TensorRef{Map: []int{0, 1}},
		Params:        []graph.TensorRef{{Map: []int{1, 2}, Param: true}},
		FlopsPerPoint: 2,
	})
	m := newModel(t, g, 4)
	res, err := Solve(context.Background(), m, seq.Generate(m.G), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bf, _ := bruteForce(m)
	if math.Abs(res.Cost-bf.Cost) > 1e-9*bf.Cost {
		t.Fatalf("single node: %v vs %v", res.Cost, bf.Cost)
	}
}

func TestDiamondGraph(t *testing.T) {
	// 0 -> {1, 2} -> 3: S(i) with two connected subsets at the join.
	g := graph.New()
	mk := func(ins int) *graph.Node {
		nd := &graph.Node{
			Name:          "fc",
			Space:         itspace.Space{{Name: "b", Size: 64}, {Name: "n", Size: 64}, {Name: "c", Size: 64}},
			Output:        graph.TensorRef{Map: []int{0, 1}},
			Params:        []graph.TensorRef{{Map: []int{1, 2}, Param: true}},
			FlopsPerPoint: 2,
		}
		for k := 0; k < ins; k++ {
			nd.Inputs = append(nd.Inputs, graph.TensorRef{Map: []int{0, 2}})
		}
		return nd
	}
	n0, n1, n2, n3 := g.AddNode(mk(0)), g.AddNode(mk(1)), g.AddNode(mk(1)), g.AddNode(mk(2))
	g.AddEdge(n0, n1)
	g.AddEdge(n0, n2)
	g.AddEdge(n1, n3)
	g.AddEdge(n2, n3)

	m := newModel(t, g, 4)
	dp, err := Solve(context.Background(), m, seq.Generate(m.G), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bf, err := bruteForce(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dp.Cost-bf.Cost) > 1e-6*bf.Cost {
		t.Fatalf("diamond: DP %v != brute %v", dp.Cost, bf.Cost)
	}
}

// The root-value guard is the rounding bound of the objective's sum: a root
// value off by 1e-9 relative is far above it and fails, on AlexNet@32, whose
// cost (0.0067 s) an absolute 1e-6 would let drift by 1.5e-4 relative.
func TestRootGuardIsRelative(t *testing.T) {
	m := paperModel(t, "alexnet", 32)
	sq := seq.Generate(m.G)
	res, err := Solve(context.Background(), m, sq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := newFrame(context.Background(), m, sq, nil, Options{}, "")
	if _, err := f.result(res.Idx, res.Cost); err != nil {
		t.Fatalf("the solve's own root value: %v", err)
	}
	if _, err := f.result(res.Idx, res.Cost*(1+1e-9)); err == nil {
		t.Errorf("root value %v off by 1e-9 relative from the strategy's %v: accepted", res.Cost*(1+1e-9), res.Cost)
	}
}
