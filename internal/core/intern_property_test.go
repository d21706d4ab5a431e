package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/seq"
)

// workerCounts is the satellite's required sweep: serial, a fixed parallel
// width, and the GOMAXPROCS default (0).
var workerCounts = []int{1, 4, 0}

// requireInternedMatchesOracle solves g twice — over the interned model and
// over the DisableInterning oracle — at every worker count, and requires
// byte-identical cost, choices, and strategy.
func requireInternedMatchesOracle(t *testing.T, g *graph.Graph, spec machine.Spec, pol itspace.EnumPolicy) {
	t.Helper()
	mi, err := cost.NewModelWith(context.Background(), g, spec, pol, cost.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mo, err := cost.NewModelWith(context.Background(), g, spec, pol, cost.BuildOptions{DisableInterning: true})
	if err != nil {
		t.Fatal(err)
	}
	sq := seq.Generate(g)
	var ref *Result
	for _, workers := range workerCounts {
		interned, err := Solve(context.Background(), mi, sq, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := Solve(context.Background(), mo, sq, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if interned.Cost != oracle.Cost {
			t.Fatalf("workers=%d: interned cost %v != oracle %v", workers, interned.Cost, oracle.Cost)
		}
		for v := range oracle.Idx {
			if interned.Idx[v] != oracle.Idx[v] {
				t.Fatalf("workers=%d node %d: interned choice %d != oracle %d",
					workers, v, interned.Idx[v], oracle.Idx[v])
			}
			if !interned.Strategy[v].Equal(oracle.Strategy[v]) {
				t.Fatalf("workers=%d node %d: interned strategy %v != oracle %v",
					workers, v, interned.Strategy[v], oracle.Strategy[v])
			}
		}
		if ref == nil {
			ref = interned
			continue
		}
		if interned.Cost != ref.Cost {
			t.Fatalf("workers=%d: cost %v != workers=%d cost %v", workers, interned.Cost, workerCounts[0], ref.Cost)
		}
		for v := range ref.Idx {
			if interned.Idx[v] != ref.Idx[v] {
				t.Fatalf("workers=%d node %d: choice differs across worker counts", workers, v)
			}
		}
	}
	if interned := mi.Info().VertexClasses; interned > g.Len() {
		t.Fatalf("vertex classes %d > %d nodes", interned, g.Len())
	}
}

// TestInternedSolveMatchesOracleOnRandomGraphs is the structural-sharing
// property test: on randomized layer graphs, solves over the interned model
// must be byte-identical — cost and strategy — to the DisableInterning
// oracle at every worker count. Random graphs repeat layer shapes often
// (the generator draws from a small shape pool), so interning genuinely
// fires here.
func TestInternedSolveMatchesOracleOnRandomGraphs(t *testing.T) {
	specs := []machine.Spec{
		machine.Uniform(8, 1e12, 1e10),
		machine.UniformCluster(4, 16, 1e12, 1.2e10, 8e9),
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(5200 + trial)))
		g := randomDNNGraph(rng, 4+rng.Intn(10))
		requireInternedMatchesOracle(t, g, specs[trial%len(specs)], itspace.EnumPolicy{})
	}
}

// TestInternedSolveMatchesOracleOnPaperBenchmarks anchors the property on
// all four paper benchmarks — the graphs whose repeated structure the
// sharing layer exists for.
func TestInternedSolveMatchesOracleOnPaperBenchmarks(t *testing.T) {
	const p = 8
	for _, bm := range models.Benchmarks() {
		t.Run(bm.Name, func(t *testing.T) {
			g := bm.Build(bm.Batch)
			requireInternedMatchesOracle(t, g, machine.GTX1080Ti(p), bm.Policy(p))
		})
	}
}

// TestChunkedFillCancelsPromptlyMidTransformer is the satellite's explicit
// chunked-fill cancellation check: with the fill split into worker-claimed
// chunks on the big Transformer tables, cancelling mid-fill must return
// within 100ms (chunks abandon at the next poll instead of completing).
//
// Kept by hand: no mutant reaches cancellation polling.
func TestChunkedFillCancelsPromptlyMidTransformer(t *testing.T) {
	m := transformerP32Model(t)
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		type outcome struct {
			err error
			at  time.Time
		}
		res := make(chan outcome, 1)
		go func() {
			_, err := Solve(ctx, m, seq.Generate(m.G), Options{Workers: workers})
			res <- outcome{err, time.Now()}
		}()
		time.Sleep(20 * time.Millisecond)
		cancelled := time.Now()
		cancel()
		select {
		case out := <-res:
			if !errors.Is(out.err, context.Canceled) {
				t.Fatalf("workers=%d: got %v, want context.Canceled", workers, out.err)
			}
			if lat := out.at.Sub(cancelled); lat > 100*time.Millisecond {
				t.Fatalf("workers=%d: cancellation latency %v, want < 100ms", workers, lat)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: cancelled solve did not return within 5s", workers)
		}
	}
}

// TestPeakLivenessAccountingUnchangedByInterning pins that the DP's
// MaxTableEntries budget still bounds live entries when the model's chunks
// share classes: positions whose inputs are the same shared tables share one
// DP table, charged once, so the interned model's peak is at most the
// oracle's (which fills every position), a budget at the observed peak must
// pass, and one below it must ErrOOM on both models alike.
func TestPeakLivenessAccountingUnchangedByInterning(t *testing.T) {
	g := models.Transformer(models.TransformerConfig{
		Batch: 32, SeqLen: 32, DModel: 256, Heads: 8, KVDim: 32,
		FFHidden: 512, Vocab: 1024, Layers: 3,
	})
	spec := machine.GTX1080Ti(8)
	pol := itspace.EnumPolicy{MaxSplitDims: 2}
	mi, err := cost.NewModelWith(context.Background(), g, spec, pol, cost.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mi.Info().SharedTableBytes == 0 {
		t.Fatal("expected the repeated-layer transformer to share tables")
	}
	mo, err := cost.NewModelWith(context.Background(), g, spec, pol, cost.BuildOptions{DisableInterning: true})
	if err != nil {
		t.Fatal(err)
	}
	sq := seq.Generate(g)
	ri, err := Solve(context.Background(), mi, sq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Solve(context.Background(), mo, sq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ri.Stats.PeakLiveEntries > ro.Stats.PeakLiveEntries {
		t.Fatalf("interned peak %d > oracle peak %d", ri.Stats.PeakLiveEntries, ro.Stats.PeakLiveEntries)
	}
	if ri.Stats.PeakLiveEntries <= 0 || ri.Stats.PeakLiveEntries > ri.Stats.TotalEntries {
		t.Fatalf("peak %d outside (0, total %d]", ri.Stats.PeakLiveEntries, ri.Stats.TotalEntries)
	}
	// The budget bounds the peak on both models identically.
	at, err := Solve(context.Background(), mi, sq, Options{MaxTableEntries: ri.Stats.PeakLiveEntries})
	if err != nil {
		t.Fatalf("budget at observed peak should pass: %v", err)
	}
	if at.Cost != ri.Cost {
		t.Fatalf("budgeted solve changed the optimum: %v vs %v", at.Cost, ri.Cost)
	}
	for _, m := range []*cost.Model{mi, mo} {
		if _, err := Solve(context.Background(), m, sq, Options{MaxTableEntries: ri.Stats.PeakLiveEntries / 2}); !errors.Is(err, ErrOOM) {
			t.Fatalf("budget below peak: got %v, want ErrOOM", err)
		}
	}
}
