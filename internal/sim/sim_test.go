package sim

import (
	"context"
	"testing"

	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/seq"
	"pase/internal/strategies"
)

func TestStepBasics(t *testing.T) {
	g := models.AlexNet(128)
	spec := machine.GTX1080Ti(8)
	dp := strategies.DataParallel(g, 8)
	res, err := Step(g, dp, spec, 128)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepSeconds <= 0 || res.Throughput <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.ComputeSeconds+res.CommSeconds+spec.OverheadSec != res.StepSeconds {
		t.Fatalf("decomposition broken: %+v", res)
	}
}

func TestMoreDevicesFasterCompute(t *testing.T) {
	g := models.AlexNet(128)
	var prev float64
	for i, p := range []int{4, 8, 16, 32} {
		res, err := Step(g, strategies.DataParallel(g, p), machine.GTX1080Ti(p), 128)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.ComputeSeconds >= prev {
			t.Fatalf("p=%d compute %.4g not below previous %.4g", p, res.ComputeSeconds, prev)
		}
		prev = res.ComputeSeconds
	}
}

func TestDataParallelCommGrowsAcrossNodes(t *testing.T) {
	// DP's gradient all-reduce crosses node boundaries beyond 8 GPUs; its
	// comm time must jump.
	g := models.AlexNet(128)
	r8, err := Step(g, strategies.DataParallel(g, 8), machine.GTX1080Ti(8), 128)
	if err != nil {
		t.Fatal(err)
	}
	r32, err := Step(g, strategies.DataParallel(g, 32), machine.GTX1080Ti(32), 128)
	if err != nil {
		t.Fatal(err)
	}
	if r32.CommSeconds <= r8.CommSeconds {
		t.Fatalf("multi-node DP comm %.4g not above single-node %.4g",
			r32.CommSeconds, r8.CommSeconds)
	}
}

func TestGroupBWClasses(t *testing.T) {
	spec := machine.GTX1080Ti(32)
	if bw := cost.GroupBW(spec, 4); bw != spec.IntraBW {
		t.Fatalf("small group bw = %v, want intra %v", bw, spec.IntraBW)
	}
	big := cost.GroupBW(spec, 32)
	if big >= spec.IntraBW || big <= 0 {
		t.Fatalf("cross-node group bw = %v", big)
	}
	single := machine.GTX1080Ti(8)
	if bw := cost.GroupBW(single, 8); bw != single.IntraBW {
		t.Fatal("single-node cluster must stay intra")
	}
}

// The load-bearing consistency property: the simulator's step time equals
// the cost model's evaluation plus the constant framework overhead, so the
// DP's optimality transfers to simulated throughput.
func TestStepEqualsModelCostPlusOverhead(t *testing.T) {
	bm, err := models.ByName("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	g := bm.Build(bm.Batch)
	spec := machine.GTX1080Ti(16)
	m, err := cost.NewModel(g, spec, bm.Policy(16))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []func() []int{
		func() []int { i, _ := m.IdxFromStrategy(strategies.DataParallel(g, 16)); return i },
	} {
		idx := s()
		st, err := Step(g, m.StrategyFromIdx(idx), spec, bm.Batch)
		if err != nil {
			t.Fatal(err)
		}
		want := m.EvalIdx(idx) + spec.OverheadSec
		if d := st.StepSeconds - want; d > 1e-12 || d < -1e-12 {
			t.Fatalf("step %.12g != model %.12g", st.StepSeconds, want)
		}
	}
}

func TestSpeedupPaSEOverDPPositiveAndLargerOn2080Ti(t *testing.T) {
	// The headline Fig. 6 property on the FC-heavy AlexNet: PaSE's strategy
	// beats data parallelism, and by more on the low-machine-balance 2080Ti.
	bm, err := models.ByName("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	g := bm.Build(bm.Batch)
	p := 32

	spec1 := machine.GTX1080Ti(p)
	m, err := cost.NewModel(g, spec1, bm.Policy(p))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(context.Background(), m, seq.Generate(m.G), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dp := strategies.DataParallel(g, p)

	s1, err := Speedup(g, res.Strategy, dp, spec1, bm.Batch)
	if err != nil {
		t.Fatal(err)
	}
	if s1 <= 1 {
		t.Fatalf("1080Ti speedup %.3f, want > 1", s1)
	}

	spec2 := machine.RTX2080Ti(p)
	m2, err := cost.NewModel(g, spec2, bm.Policy(p))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := core.Solve(context.Background(), m2, seq.Generate(m2.G), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Speedup(g, res2.Strategy, dp, spec2, bm.Batch)
	if err != nil {
		t.Fatal(err)
	}
	if s2 <= s1 {
		t.Fatalf("2080Ti speedup %.3f not above 1080Ti %.3f (machine balance)", s2, s1)
	}
}

func TestStepValidatesInputs(t *testing.T) {
	g := models.AlexNet(128)
	if _, err := Step(g, nil, machine.GTX1080Ti(8), 128); err == nil {
		t.Fatal("nil strategy accepted")
	}
	dp := strategies.DataParallel(g, 8)
	if _, err := Step(g, dp, machine.Spec{}, 128); err == nil {
		t.Fatal("invalid spec accepted")
	}
}
