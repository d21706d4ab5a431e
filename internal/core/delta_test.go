package core

import (
	"context"
	"math/rand"
	"testing"

	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/seq"
)

// dirtyFromModels marks every vertex whose class fingerprint (or an
// incident edge's) differs between two same-topology models — the planner's
// delta detection, reproduced here for direct Resolve tests.
func dirtyFromModels(t *testing.T, old, new *cost.Model) []bool {
	t.Helper()
	n := new.G.Len()
	dirty := make([]bool, n)
	for v := 0; v < n; v++ {
		if old.VertexClassFP(v) != new.VertexClassFP(v) {
			dirty[v] = true
		}
	}
	for e, uv := range new.Edges() {
		if old.EdgeClassFP(e) != new.EdgeClassFP(e) {
			dirty[uv[0]] = true
			dirty[uv[1]] = true
		}
	}
	return dirty
}

// requireSameResult requires byte-identical cost, choices, and strategy.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Fatalf("%s: cost %v != oracle %v", label, got.Cost, want.Cost)
	}
	for v := range want.Idx {
		if got.Idx[v] != want.Idx[v] {
			t.Fatalf("%s node %d: choice %d != oracle %d", label, v, got.Idx[v], want.Idx[v])
		}
		if !got.Strategy[v].Equal(want.Strategy[v]) {
			t.Fatalf("%s node %d: strategy %v != oracle %v", label, v, got.Strategy[v], want.Strategy[v])
		}
	}
}

// An all-clean Resolve (no delta at all) must reproduce the snapshot's
// result byte for byte while filling zero tables.
func TestResolveAllCleanFillsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomDNNGraph(rng, 12)
	m := newModel(t, g, 8)
	sq := seq.Generate(g)
	full, snap, err := SolveRetain(context.Background(), m, sq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	re, _, err := Resolve(context.Background(), m, snap, make([]bool, g.Len()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "all-clean", re, full)
	if re.Stats.DirtyPositions != 0 {
		t.Errorf("all-clean resolve filled %d positions, want 0", re.Stats.DirtyPositions)
	}
	if re.Stats.ReusedEntries != full.Stats.TotalEntries {
		t.Errorf("reused %d entries, want all %d", re.Stats.ReusedEntries, full.Stats.TotalEntries)
	}
}

// The core property: on random layer graphs, a single-node content delta
// re-solved from the old model's snapshot must be byte-identical — cost,
// choices, strategy — to a cold full solve of the new model, at every
// worker count, and must actually skip clean positions.
func TestResolveMatchesFullSolveOnRandomGraphs(t *testing.T) {
	// A mutated node that sits in every dependent set legitimately dirties
	// every position, so partial reuse is asserted in aggregate, not per trial.
	var reusedTrials int
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(7100 + trial)))
		n := 6 + rng.Intn(8)
		seed := rng.Int63()
		build := func() *graph.Graph {
			return randomDNNGraph(rand.New(rand.NewSource(seed)), n)
		}
		g1 := build()
		g2 := build()
		// The delta: one node's FLOPs density changes (attributes only —
		// topology, spaces, and tensor maps stay put).
		g2.Nodes[rng.Intn(n)].FlopsPerPoint *= 3

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
		dirty := dirtyFromModels(t, m1, m2)
		oracle, err := Solve(context.Background(), m2, seq.Generate(g2), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range workerCounts {
			re, snap2, err := Resolve(context.Background(), m2, snap, dirty, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "delta", re, oracle)
			if re.Stats.DirtyPositions == 0 {
				t.Errorf("trial %d workers %d: delta marked no positions dirty", trial, workers)
			}
			if re.Stats.DirtyPositions < len(sq.Order) && re.Stats.ReusedEntries > 0 {
				reusedTrials++
			}
			// Chain: a second delta re-solve from the NEW snapshot (same
			// model, all clean) must still agree.
			re2, _, err := Resolve(context.Background(), m2, snap2, make([]bool, n), Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "chained", re2, oracle)
		}
	}
	if reusedTrials == 0 {
		t.Errorf("no trial reused any table entries: delta detection never produced a partial re-solve")
	}
}

// The paper benchmarks, end to end: a one-layer FLOPs delta on each
// benchmark graph re-solves to exactly the full solve's answer.
func TestResolveMatchesFullSolveOnPaperBenchmarks(t *testing.T) {
	const p = 8
	for _, bm := range models.Benchmarks() {
		t.Run(bm.Name, func(t *testing.T) {
			g1 := bm.Build(bm.Batch)
			g2 := bm.Build(bm.Batch)
			g2.Nodes[g2.Len()/3].FlopsPerPoint *= 2
			spec := machine.GTX1080Ti(p)
			pol := bm.Policy(p)
			m1, err := cost.NewModelWith(context.Background(), g1, spec, pol, cost.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			m2, err := cost.NewModelWith(context.Background(), g2, spec, pol, cost.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sq := seq.Generate(g1)
			_, snap, err := SolveRetain(context.Background(), m1, sq, Options{})
			if err != nil {
				t.Fatal(err)
			}
			dirty := dirtyFromModels(t, m1, m2)
			oracle, err := Solve(context.Background(), m2, seq.Generate(g2), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range workerCounts {
				re, _, err := Resolve(context.Background(), m2, snap, dirty, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, "delta", re, oracle)
			}
		})
	}
}

// EstimateDelta must agree with what Resolve then actually fills: the
// estimated dirty entries equal the filled table entries, the total equals
// the full solve's TotalEntries.
func TestEstimateDeltaMatchesResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	seed := rng.Int63()
	n := 10
	build := func() *graph.Graph { return randomDNNGraph(rand.New(rand.NewSource(seed)), n) }
	g1, g2 := build(), build()
	g2.Nodes[4].FlopsPerPoint *= 5
	spec := machine.Uniform(8, 1e12, 1e10)
	m1, err := cost.NewModelWith(context.Background(), g1, spec, itspace.EnumPolicy{}, cost.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := cost.NewModelWith(context.Background(), g2, spec, itspace.EnumPolicy{}, cost.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full, snap, err := SolveRetain(context.Background(), m1, seq.Generate(g1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dirty := dirtyFromModels(t, m1, m2)
	est, total := snap.EstimateDelta(m2, dirty)
	if total != full.Stats.TotalEntries {
		t.Errorf("EstimateDelta total %d != solve TotalEntries %d", total, full.Stats.TotalEntries)
	}
	re, _, err := Resolve(context.Background(), m2, snap, dirty, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if filled := re.Stats.TotalEntries - re.Stats.ReusedEntries; est != filled {
		t.Errorf("EstimateDelta dirty %d != actually filled %d", est, filled)
	}
}

// Resolve against a snapshot whose table shapes no longer match the model
// (an unsound dirty set) must fail loudly, not silently reuse wrong tables.
func TestResolveUnsoundDirtySetFails(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	seed := rng.Int63()
	build := func() *graph.Graph { return randomDNNGraph(rand.New(rand.NewSource(seed)), 8) }
	g1, g2 := build(), build()
	// Change a node's SPACE size: its config count changes, so its DP tables
	// change shape. An (incorrectly) all-clean dirty set must be rejected.
	g2.Nodes[3].Space[1].Size *= 2
	spec := machine.Uniform(8, 1e12, 1e10)
	m1, err := cost.NewModelWith(context.Background(), g1, spec, itspace.EnumPolicy{}, cost.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := cost.NewModelWith(context.Background(), g2, spec, itspace.EnumPolicy{}, cost.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m1.K(3) == m2.K(3) {
		t.Skip("space change did not change the config count; pick a different delta")
	}
	_, snap, err := SolveRetain(context.Background(), m1, seq.Generate(g1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resolve(context.Background(), m2, snap, make([]bool, 8), Options{}); err == nil {
		t.Fatal("Resolve accepted a snapshot with mismatched table shapes")
	}
}
