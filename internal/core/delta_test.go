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

// missingKeys reports, per position of ordering sq, whether position i's
// table key under m is one the snapshot does not hold — the positions a
// keeping solve over m and sq fills (once per class).
func missingKeys(t *testing.T, snap *Snapshot, m *cost.Model, sq *seq.Sequence) []bool {
	t.Helper()
	_, keys, err := newFrame(context.Background(), m, sq, seq.Children(m.G, sq), Options{}, "").tableClasses()
	if err != nil {
		t.Fatal(err)
	}
	held := snap.held()
	missing := make([]bool, len(keys))
	for i, k := range keys {
		missing[i] = held[k] == nil
	}
	return missing
}

// filledClasses counts the classes of m's tables over sq whose keys the
// snapshot does not hold: the fills a keeping solve runs.
func filledClasses(t *testing.T, snap *Snapshot, m *cost.Model, sq *seq.Sequence) int {
	t.Helper()
	rep := classesOf(t, m, sq, seq.Children(m.G, sq))
	n := 0
	for i, miss := range missingKeys(t, snap, m, sq) {
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

// An all-clean keeping solve (no delta at all) must reproduce the snapshot's
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
	re, _, err := SolveKeep(context.Background(), m, sq, snap, Options{})
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
			re, snap2, err := SolveKeep(context.Background(), m2, sq, snap, Options{Workers: workers})
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
			re2, _, err := SolveKeep(context.Background(), m2, sq, snap2, Options{Workers: workers})
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
				re, _, err := SolveKeep(context.Background(), m2, sq, snap, Options{Workers: workers})
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
// the re-solve's TotalEntries. On the Transformer the edit splits a table
// class the snapshot's solve shared, so that solve's total (324,149) is less
// than the re-solve's (329,594).
func TestEstimateDeltaMatchesResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	seed := rng.Int63()
	transformer, err := models.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		build func() *graph.Graph
	}{
		{"random", func() *graph.Graph { return randomDNNGraph(rand.New(rand.NewSource(seed)), 10) }},
		// Positions share tables here, and the edit splits a class.
		{"transformer", func() *graph.Graph { return transformer.Build(transformer.Batch) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g1, g2 := tc.build(), tc.build()
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
			_, snap, err := SolveRetain(context.Background(), m1, seq.Generate(g1), Options{})
			if err != nil {
				t.Fatal(err)
			}
			est, total := snap.EstimateDelta(m2, nil)
			re, _, err := Resolve(context.Background(), m2, snap, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if total != re.Stats.TotalEntries {
				t.Errorf("EstimateDelta total %d != re-solve TotalEntries %d", total, re.Stats.TotalEntries)
			}
			if est == 0 || est == total {
				t.Errorf("EstimateDelta %d of %d entries: want a partial re-solve", est, total)
			}
			if filled := re.Stats.TotalEntries - re.Stats.ReusedEntries; est != filled {
				t.Errorf("EstimateDelta dirty %d != actually filled %d", est, filled)
			}
		})
	}
}

// A Space size edit changes a vertex's configuration count, and with it the
// shape of every table it is a digit of. SolveKeep keys tables by content, K
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
	want := filledClasses(t, snap, m2, sq)
	for _, workers := range workerCounts {
		label := fmt.Sprintf("K %d → %d, workers %d", m1.K(3), m2.K(3), workers)
		re, reSnap, err := SolveKeep(context.Background(), m2, sq, snap, Options{Workers: workers})
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
// after the build — so SolveKeep over it keeps no table of any snapshot, its
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
		re, _, err := SolveKeep(context.Background(), mo, sq, snap, Options{})
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

// FuzzResolveMatchesSolve edits a random layer graph and requires a keeping
// solve of the edited model from the unedited model's snapshot to equal a
// fresh solve of the edited model — cost, choices and every table — at 1 and
// 4 workers, and to evaluate no more states. The edit is one vertex's FLOPs,
// the scale of a tensor it reads or the size of a dimension; or a topology
// edit, a leaf node hung off the vertex or an edge from it into the last
// node, added or (the two graphs swapped) removed; or none, with the
// snapshot's solve run over the breadth-first ordering instead of
// GENERATESEQ's.
func FuzzResolveMatchesSolve(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed, uint8(seed), uint8(seed%3), uint8(seed*7))
	}
	for seed := int64(1); seed <= 12; seed++ {
		for _, at := range []uint8{0, 16, 32, 48} { // leaf or edge, added or removed
			f.Add(seed, uint8(seed+3), uint8(3), at+uint8(seed))
		}
		f.Add(seed, uint8(seed+3), uint8(4), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, size, kind, at uint8) {
		n := 3 + int(size%10)
		build := func() *graph.Graph { return randomDNNGraph(rand.New(rand.NewSource(seed)), n) }
		g1, g2 := build(), build()
		v := g2.Nodes[int(at)%n]
		bfs := false
		switch kind % 5 {
		case 0:
			v.FlopsPerPoint *= 1 + float64(1+seed%7)/4
		case 1:
			if len(v.Inputs) == 0 {
				t.Skip("no tensor read")
			}
			v.Inputs[0].Scale = 2
		case 2:
			v.Space[int(at/16)%len(v.Space)].Size = 1 << (at % 4) // 1..8: often fewer configurations
		case 3:
			if at&16 == 0 {
				leaf := g2.AddNode(&graph.Node{
					Name:          "fc",
					Op:            graph.OpFC,
					Space:         slices.Clone(v.Space),
					Output:        graph.TensorRef{Map: []int{0, 1}},
					Params:        []graph.TensorRef{{Map: []int{1, 2}, Param: true}},
					Inputs:        []graph.TensorRef{{Map: []int{0, 2}}},
					FlopsPerPoint: 2,
				})
				g2.AddEdge(v, leaf)
			} else {
				last := g2.Nodes[n-1]
				if v == last || slices.Contains(g2.In(last.ID), v.ID) {
					t.Skip("no new edge into the last node")
				}
				last.Inputs = append(last.Inputs, graph.TensorRef{Map: []int{0, 2}})
				g2.AddEdge(v, last)
			}
			if at&32 != 0 {
				g1, g2 = g2, g1
			}
		default:
			bfs = true
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
		sq1, sq := seq.Generate(g1), seq.Generate(g2)
		if bfs {
			sq1 = seq.BFS(g1)
		}
		_, snap, err := SolveRetain(context.Background(), m1, sq1, Options{Workers: 1})
		if err != nil {
			t.Skip(err)
		}
		fresh, freshSnap, err := SolveRetain(context.Background(), m2, sq, Options{Workers: 1})
		if err != nil {
			t.Skip(err)
		}
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("workers %d", workers)
			re, reSnap, err := SolveKeep(context.Background(), m2, sq, snap, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if math.Float64bits(re.Cost) != math.Float64bits(fresh.Cost) || !slices.Equal(re.Idx, fresh.Idx) {
				t.Fatalf("%s: re-solve %v %v, fresh %v %v", label, re.Cost, re.Idx, fresh.Cost, fresh.Idx)
			}
			requireSameSnapshots(t, label, reSnap, freshSnap)
			if re.Stats.States > fresh.Stats.States {
				t.Fatalf("%s: re-solve evaluated %d states, the fresh solve %d", label, re.Stats.States, fresh.Stats.States)
			}
		}
	})
}
