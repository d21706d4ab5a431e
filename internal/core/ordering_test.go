package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pase/internal/cost"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/seq"
)

// Theorem 1 holds for ANY vertex ordering, not just GENERATESEQ or BF: the
// recurrence over definitional dependent sets always attains min F(G, φ).
// Solve with random permutations must equal brute force.
func TestSolveArbitraryOrderingsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDNNGraph(rng, 3+rng.Intn(3))
		m, err := cost.NewModel(g, machine.Uniform(4, 1e12, 1e10), itspace.EnumPolicy{})
		if err != nil {
			return false
		}
		bf, err := bruteForce(m)
		if err != nil {
			return false
		}
		order := rng.Perm(g.Len())
		res, err := Solve(context.Background(), m, seq.FromOrder(g, order), Options{})
		if err != nil {
			return false
		}
		return math.Abs(res.Cost-bf.Cost) <= 1e-6*math.Max(1, bf.Cost)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// GENERATESEQ never needs larger dependent sets than breadth-first ordering
// on the graph family the solver targets (sparse DAGs with joins).
func TestGenerateSeqNeverWorseThanBFQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDNNGraph(rng, 4+rng.Intn(8))
		return seq.Generate(g).MaxDepSize() <= seq.BFS(g).MaxDepSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The DP's work scales with the ordering quality: on a graph where
// GENERATESEQ shrinks M, its largest table and the candidates its scans
// evaluate (States) must be at most BF's, and both solves evaluate some.
func TestOrderingReducesStates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomDNNGraph(rng, 8)
	m := newModel(t, g, 4)
	gen, err := Solve(context.Background(), m, seq.Generate(m.G), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bf, err := Solve(context.Background(), m, seq.BFS(m.G), Options{MaxTableEntries: 1 << 28})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Stats.MaxTable > bf.Stats.MaxTable {
		t.Fatalf("GENERATESEQ table %d larger than BF %d",
			gen.Stats.MaxTable, bf.Stats.MaxTable)
	}
	if gen.Stats.States <= 0 || gen.Stats.States > bf.Stats.States {
		t.Fatalf("GENERATESEQ evaluated %d states, BF %d", gen.Stats.States, bf.Stats.States)
	}
	if math.Abs(gen.Cost-bf.Cost) > 1e-6*bf.Cost {
		t.Fatalf("orderings disagree on optimum: %v vs %v", gen.Cost, bf.Cost)
	}
}
