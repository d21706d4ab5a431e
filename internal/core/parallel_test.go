package core

import (
	"context"
	"math/rand"
	"testing"

	"pase/internal/cost"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/seq"
)

// The parallel table fill must be byte-identical to the serial one: same
// minimum cost AND same extracted strategy (tie-breaking preserved).
//
// Kept by hand: no mutant reaches the worker count.
func TestParallelSolverMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		g := randomDNNGraph(rng, 5+rng.Intn(5))
		for _, workers := range []int{2, 4, 8} {
			m1 := newModel(t, g, 8)
			serial, err := Solve(context.Background(), m1, seq.Generate(m1.G), Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			m2 := newModel(t, g, 8)
			par, err := Solve(context.Background(), m2, seq.Generate(m2.G), Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if serial.Cost != par.Cost {
				t.Fatalf("workers=%d: cost %v != serial %v", workers, par.Cost, serial.Cost)
			}
			for v := range serial.Idx {
				if serial.Idx[v] != par.Idx[v] {
					t.Fatalf("workers=%d node %d: config %d != serial %d",
						workers, v, par.Idx[v], serial.Idx[v])
				}
			}
		}
	}
}

// Race check on a real model (run under -race in CI): NewModel builds its
// cost tables across a worker pool and the parallel fill shares only
// read-only state across goroutines.
//
// Kept by hand: no mutant reaches the worker count.
func TestParallelSolverOnInception(t *testing.T) {
	g := models.InceptionV3(128)
	m, err := cost.NewModel(g, machine.GTX1080Ti(8), itspace.EnumPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Solve(context.Background(), m, seq.Generate(m.G), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := cost.NewModel(g, machine.GTX1080Ti(8), itspace.EnumPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	ser, err := Solve(context.Background(), m2, seq.Generate(m2.G), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if par.Cost != ser.Cost {
		t.Fatalf("parallel %v != serial %v", par.Cost, ser.Cost)
	}
}

// Workers=1 and Workers=N must produce byte-identical results — cost AND
// per-node configuration choices — on all four paper benchmarks, not just
// random graphs: the default is now parallel, so the determinism guarantee
// is what makes it safe.
//
// Kept by hand: no mutant reaches the worker count.
func TestWorkersByteIdenticalOnPaperBenchmarks(t *testing.T) {
	const p = 8
	for _, bm := range models.Benchmarks() {
		t.Run(bm.Name, func(t *testing.T) {
			g := bm.Build(bm.Batch)
			m, err := cost.NewModel(g, machine.GTX1080Ti(p), bm.Policy(p))
			if err != nil {
				t.Fatal(err)
			}
			serial, err := Solve(context.Background(), m, seq.Generate(m.G), Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 4} { // 0 = GOMAXPROCS default
				par, err := Solve(context.Background(), m, seq.Generate(m.G), Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if par.Cost != serial.Cost {
					t.Fatalf("workers=%d: cost %v != serial %v", workers, par.Cost, serial.Cost)
				}
				for v := range serial.Idx {
					if par.Idx[v] != serial.Idx[v] {
						t.Fatalf("workers=%d node %d: config %d != serial %d",
							workers, v, par.Idx[v], serial.Idx[v])
					}
				}
			}
		})
	}
}

// With liveness-based freeing, the peak live entry count must be reported
// and can sit well under the total ever allocated; the budget bounds the
// peak, so a budget between peak and total must now succeed.
func TestTableLivenessShrinksPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomDNNGraph(rng, 12)
	m := newModel(t, g, 8)
	res, err := Solve(context.Background(), m, seq.Generate(m.G), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PeakLiveEntries <= 0 || res.Stats.PeakLiveEntries > res.Stats.TotalEntries {
		t.Fatalf("peak live %d outside (0, total %d]", res.Stats.PeakLiveEntries, res.Stats.TotalEntries)
	}
	if res.Stats.PeakLiveEntries < res.Stats.TotalEntries {
		budget := (res.Stats.PeakLiveEntries + res.Stats.TotalEntries) / 2
		mid, err := Solve(context.Background(), m, seq.Generate(m.G), Options{MaxTableEntries: budget})
		if err != nil {
			t.Fatalf("budget %d between peak %d and total %d should fit: %v",
				budget, res.Stats.PeakLiveEntries, res.Stats.TotalEntries, err)
		}
		if mid.Cost != res.Cost {
			t.Fatalf("budgeted solve changed the optimum: %v vs %v", mid.Cost, res.Cost)
		}
	}
}
