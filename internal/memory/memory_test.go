package memory

import (
	"context"
	"testing"

	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/seq"
	"pase/internal/strategies"
)

func TestEstimateBasics(t *testing.T) {
	g := models.AlexNet(128)
	dp := strategies.DataParallel(g, 8)
	f, err := Estimate(g, dp)
	if err != nil {
		t.Fatal(err)
	}
	if f.Activations <= 0 || f.Parameters <= 0 || f.Total() <= 0 {
		t.Fatalf("degenerate footprint: %+v", f)
	}
	// AlexNet has ~58M params fully replicated under DP: ≥ 58M×4×3 bytes.
	if f.Parameters < 58e6*4*3*0.9 {
		t.Fatalf("DP parameter footprint %.3g too small (weights not replicated?)", f.Parameters)
	}
}

func TestDataParallelismHasHighestParameterFootprint(t *testing.T) {
	// Paper §I: "it might be impossible to train large models by just using
	// data parallelism, due to memory constraints" — parameter parallelism
	// shards weights while DP replicates them.
	g := models.RNNLM(64)
	p := 32
	dp := strategies.DataParallel(g, p)
	fDP, err := Estimate(g, dp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cost.NewModel(g, machine.GTX1080Ti(p), itspace.EnumPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(context.Background(), m, seq.Generate(m.G), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fBest, err := Estimate(g, res.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	if fBest.Parameters >= fDP.Parameters {
		t.Fatalf("PaSE params %.3g not below DP %.3g", fBest.Parameters, fDP.Parameters)
	}
	// The paper's indirect-minimization claim: the cost-optimal strategy
	// should not have a larger total footprint than data parallelism on a
	// parameter-dominated model.
	if fBest.Total() >= fDP.Total() {
		t.Fatalf("PaSE total %.3g not below DP %.3g", fBest.Total(), fDP.Total())
	}
}

func TestSplittingReducesActivations(t *testing.T) {
	g := models.AlexNet(128)
	dp8 := strategies.DataParallel(g, 8)
	dp32 := strategies.DataParallel(g, 32)
	f8, err := Estimate(g, dp8)
	if err != nil {
		t.Fatal(err)
	}
	f32, err := Estimate(g, dp32)
	if err != nil {
		t.Fatal(err)
	}
	if f32.Activations >= f8.Activations {
		t.Fatalf("more devices did not shrink activations: %.3g vs %.3g",
			f32.Activations, f8.Activations)
	}
}

func TestEstimateValidates(t *testing.T) {
	g := models.AlexNet(128)
	if _, err := Estimate(g, nil); err == nil {
		t.Fatal("nil strategy accepted")
	}
}
