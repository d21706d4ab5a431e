package core

import (
	"context"
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

// missingKeys reports, per position of the snapshot's ordering, whether
// position i's table key under m is one the snapshot does not hold — the
// positions a Resolve over m fills (once per class).
func missingKeys(t *testing.T, snap *Snapshot, m *cost.Model) []bool {
	t.Helper()
	_, keys, err := newFrame(context.Background(), m, snap.sq, snap.subsets, Options{}, "").tableClasses()
	if err != nil {
		t.Fatal(err)
	}
	held := snap.held(m)
	missing := make([]bool, len(keys))
	for i, k := range keys {
		missing[i] = held[k] == nil
	}
	return missing
}

// filledClasses counts the classes of m's tables over the snapshot's
// ordering whose keys the snapshot does not hold: the fills a Resolve runs.
func filledClasses(t *testing.T, snap *Snapshot, m *cost.Model) int {
	t.Helper()
	rep := classesOf(t, m, snap.sq, snap.subsets)
	n := 0
	for i, miss := range missingKeys(t, snap, m) {
		if miss && rep[i] == i {
			n++
		}
	}
	return n
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
	re, _, err := Resolve(context.Background(), m, snap, nil, Options{})
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
		oracle, err := Solve(context.Background(), m2, seq.Generate(g2), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range workerCounts {
			re, snap2, err := Resolve(context.Background(), m2, snap, nil, Options{Workers: workers})
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
			re2, _, err := Resolve(context.Background(), m2, snap2, nil, Options{Workers: workers})
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
			oracle, err := Solve(context.Background(), m2, seq.Generate(g2), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range workerCounts {
				re, _, err := Resolve(context.Background(), m2, snap, nil, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, "delta", re, oracle)
			}
		})
	}
}

// EstimateDelta must agree with what Resolve then actually fills: the
// estimated missing entries equal the filled table entries, the total equals
// the solve's TotalEntries.
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
	est, total := snap.EstimateDelta(m2, nil)
	if total != full.Stats.TotalEntries {
		t.Errorf("EstimateDelta total %d != solve TotalEntries %d", total, full.Stats.TotalEntries)
	}
	re, _, err := Resolve(context.Background(), m2, snap, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if est == 0 || est == total {
		t.Errorf("EstimateDelta %d of %d entries: want a partial re-solve", est, total)
	}
	if filled := re.Stats.TotalEntries - re.Stats.ReusedEntries; est != filled {
		t.Errorf("EstimateDelta dirty %d != actually filled %d", est, filled)
	}
}

// A Space size edit changes a vertex's configuration count, and with it the
// shape of every table it is a digit of. Resolve keys tables by content, K
// included, so this is a delta like any other: the result and every table
// are a fresh solve's, bit for bit, and only the positions whose key changed
// are filled.
func TestResolveAcrossAConfigurationCountChange(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	seed := rng.Int63()
	build := func() *graph.Graph { return randomDNNGraph(rand.New(rand.NewSource(seed)), 8) }
	g1, g2 := build(), build()
	g2.Nodes[3].Space[1].Size = 2 // splits two ways at most: fewer configurations
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
		t.Fatalf("the Space edit left K(3) at %d", m1.K(3))
	}
	sq := seq.Generate(g1)
	_, snap, err := SolveRetain(context.Background(), m1, sq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, freshSnap, err := SolveRetain(context.Background(), m2, sq, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := filledClasses(t, snap, m2)
	for _, workers := range workerCounts {
		label := fmt.Sprintf("K %d → %d, workers %d", m1.K(3), m2.K(3), workers)
		re, reSnap, err := Resolve(context.Background(), m2, snap, nil, Options{Workers: workers})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireSameResult(t, label, re, fresh)
		if !slices.Equal(re.Idx, fresh.Idx) {
			t.Fatalf("%s: choices %v, fresh %v", label, re.Idx, fresh.Idx)
		}
		requireSameSnapshots(t, label, reSnap, freshSnap)
		if re.Stats.DirtyPositions != want || want == 0 || re.Stats.ReusedEntries == 0 {
			t.Fatalf("%s: filled %d positions and kept %d entries; %d keys changed, want a partial re-solve",
				label, re.Stats.DirtyPositions, re.Stats.ReusedEntries, want)
		}
	}
}

// A model built without class fingerprints names its tables by index, which
// says nothing about their bytes — the tests' adversarial models write cells
// after the build — so Resolve over it keeps no table of any snapshot, its
// own model's included, and equals a cold solve.
func TestResolveWithoutFingerprintsKeepsNothing(t *testing.T) {
	g := randomDNNGraph(rand.New(rand.NewSource(29)), 10)
	spec := machine.Uniform(8, 1e12, 1e10)
	sq := seq.Generate(g)
	var snaps []*Snapshot
	for _, bo := range []cost.BuildOptions{{}, {DisableInterning: true}} {
		m, err := cost.NewModelWith(context.Background(), g, spec, itspace.EnumPolicy{}, bo)
		if err != nil {
			t.Fatal(err)
		}
		_, snap, err := SolveRetain(context.Background(), m, sq, Options{})
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	mo, err := cost.NewModelWith(context.Background(), g, spec, itspace.EnumPolicy{}, cost.BuildOptions{DisableInterning: true})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(context.Background(), mo, sq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, snap := range snaps {
		re, _, err := Resolve(context.Background(), mo, snap, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("snapshot %d", i), re, cold)
		if re.Stats.ReusedEntries != 0 || re.Stats.DirtyPositions != len(sq.Order) {
			t.Errorf("snapshot %d: kept %d entries and filled %d of %d positions, want none kept",
				i, re.Stats.ReusedEntries, re.Stats.DirtyPositions, len(sq.Order))
		}
	}
}

// FuzzResolveMatchesSolve edits one vertex of a random layer graph — its
// FLOPs, the scale of a tensor it reads, or the size of a dimension — and
// requires Resolve against the unedited model's snapshot to equal a fresh
// solve of the edited model, cost, choices and every table, at 1 and 4
// workers.
func FuzzResolveMatchesSolve(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed, uint8(seed), uint8(seed%3), uint8(seed*7))
	}
	f.Fuzz(func(t *testing.T, seed int64, size, kind, at uint8) {
		n := 3 + int(size%10)
		build := func() *graph.Graph { return randomDNNGraph(rand.New(rand.NewSource(seed)), n) }
		g1, g2 := build(), build()
		v := g2.Nodes[int(at)%n]
		switch kind % 3 {
		case 0:
			v.FlopsPerPoint *= 1 + float64(1+seed%7)/4
		case 1:
			if len(v.Inputs) == 0 {
				t.Skip("no tensor read")
			}
			v.Inputs[0].Scale = 2
		default:
			v.Space[int(at/16)%len(v.Space)].Size = 1 << (at % 4) // 1..8: often fewer configurations
		}
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
		_, snap, err := SolveRetain(context.Background(), m1, sq, Options{Workers: 1})
		if err != nil {
			t.Skip(err)
		}
		fresh, freshSnap, err := SolveRetain(context.Background(), m2, sq, Options{Workers: 1})
		if err != nil {
			t.Skip(err)
		}
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("workers %d", workers)
			re, reSnap, err := Resolve(context.Background(), m2, snap, nil, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if math.Float64bits(re.Cost) != math.Float64bits(fresh.Cost) || !slices.Equal(re.Idx, fresh.Idx) {
				t.Fatalf("%s: re-solve %v %v, fresh %v %v", label, re.Cost, re.Idx, fresh.Cost, fresh.Idx)
			}
			requireSameSnapshots(t, label, reSnap, freshSnap)
		}
	})
}
