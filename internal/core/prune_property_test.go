package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/seq"
)

func solveWith(t *testing.T, g *graph.Graph, spec machine.Spec, bo cost.BuildOptions) *Result {
	t.Helper()
	m, err := cost.NewModelWith(context.Background(), g, spec, itspace.EnumPolicy{}, bo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), m, seq.Generate(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPrunedSolveMatchesUnprunedOnRandomGraphs is the config-space reduction
// property test: on randomized layer graphs, the default build (exact
// duplicate-signature dedup) must return the same optimal cost as the
// unpruned oracle AND the byte-identical strategy — dedup keeps the first
// member of every signature class, which is exactly the configuration the
// tie-breaking (lowest index wins) unpruned DP selects.
func TestPrunedSolveMatchesUnprunedOnRandomGraphs(t *testing.T) {
	specs := []machine.Spec{
		machine.Uniform(8, 1e12, 1e10),
		machine.UniformCluster(4, 16, 1e12, 1.2e10, 8e9),
	}
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		g := randomDNNGraph(rng, 4+rng.Intn(10))
		spec := specs[trial%len(specs)]

		pruned := solveWith(t, g, spec, cost.BuildOptions{})
		oracle := solveWith(t, g, spec, cost.BuildOptions{DisablePruning: true})

		if math.Abs(pruned.Cost-oracle.Cost) > 1e-9*math.Max(1, oracle.Cost) {
			t.Fatalf("trial %d: pruned cost %v != unpruned cost %v", trial, pruned.Cost, oracle.Cost)
		}
		for v := range oracle.Strategy {
			if !pruned.Strategy[v].Equal(oracle.Strategy[v]) {
				t.Fatalf("trial %d: node %d strategy %v != unpruned %v (exact dedup must be byte-identical)",
					trial, v, pruned.Strategy[v], oracle.Strategy[v])
			}
		}
		if pruned.Stats.KEffective <= 0 {
			t.Fatalf("trial %d: KEffective = %d", trial, pruned.Stats.KEffective)
		}
	}
}

// TestPrunedSolveMatchesUnprunedOnPaperBenchmark anchors the property on a
// real benchmark shape: AlexNet's conv/FC mix at p=8 (the graphs where exact
// dedup actually fires, via its indivisible spatial dims).
func TestPrunedSolveMatchesUnprunedOnPaperBenchmark(t *testing.T) {
	g := models.AlexNet(128)
	spec := machine.GTX1080Ti(8)
	pruned := solveWith(t, g, spec, cost.BuildOptions{})
	oracle := solveWith(t, g, spec, cost.BuildOptions{DisablePruning: true})
	if math.Abs(pruned.Cost-oracle.Cost) > 1e-9*math.Max(1, oracle.Cost) {
		t.Fatalf("pruned cost %v != unpruned cost %v", pruned.Cost, oracle.Cost)
	}
	for v := range oracle.Strategy {
		if !pruned.Strategy[v].Equal(oracle.Strategy[v]) {
			t.Fatalf("node %d strategy %v != unpruned %v", v, pruned.Strategy[v], oracle.Strategy[v])
		}
	}
	if pruned.Stats.PrunedConfigs == 0 {
		t.Fatal("expected exact dedup to fire on the conv benchmark shape")
	}
}
