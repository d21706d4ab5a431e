package pase

// Benchmark harness: one benchmark family per table/figure of the paper's
// evaluation (Section IV). `go test -bench=. -benchmem` regenerates the
// measurements; `go run ./cmd/paper -all` prints the full tables in the
// paper's layouts.
//
//   - BenchmarkTableI_PaSE/BF/MCMC: strategy-search time per model and p
//     (Table I). BF entries that OOM in the paper are skipped here the same
//     way (the solver returns ErrOOM in milliseconds).
//   - BenchmarkTableII: the p=32 solve whose output is the paper's Table II.
//   - BenchmarkFig5: GENERATESEQ ordering time on the structurally
//     interesting graphs.
//   - BenchmarkFig6: end-to-end strategy search + step simulation; the
//     speedup over data parallelism is reported as the custom metric
//     "speedup" (the paper's Fig. 6 y-axis).

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pase/internal/core"
	"pase/internal/mcmc"
	"pase/internal/seq"
	"pase/internal/strategies"
)

var tableIDevices = []int{4, 8, 16, 32, 64}

func benchName(model string, p int) string { return fmt.Sprintf("%s/p=%d", model, p) }

func BenchmarkTableI_PaSE(b *testing.B) {
	for _, bm := range Benchmarks() {
		g := bm.Build(bm.Batch)
		for _, p := range tableIDevices {
			b.Run(benchName(bm.Name, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := solveFresh(g, GTX1080Ti(p), Options{Policy: bm.Policy(p)}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTableI_BF(b *testing.B) {
	for _, bm := range Benchmarks() {
		g := bm.Build(bm.Batch)
		for _, p := range []int{8, 32} {
			b.Run(benchName(bm.Name, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, err := solveFresh(g, GTX1080Ti(p), Options{Policy: bm.Policy(p), BreadthFirst: true})
					if errors.Is(err, ErrOOM) {
						b.Skip("OOM (paper Table I reports the same)")
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTableI_MCMC(b *testing.B) {
	for _, bm := range Benchmarks() {
		g := bm.Build(bm.Batch)
		for _, p := range []int{8, 32} {
			b.Run(benchName(bm.Name, p), func(b *testing.B) {
				m, err := NewModel(g, GTX1080Ti(p), bm.Policy(p))
				if err != nil {
					b.Fatal(err)
				}
				// Seeded with the expert strategy (the paper's protocol).
				s, err := strategies.ForMethod("expert:"+bm.Family, g, p)
				if err != nil {
					b.Fatal(err)
				}
				init, err := m.IdxFromStrategy(s)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := mcmc.Search(context.Background(), m, init, mcmc.Options{Seed: 1, MinIters: 25000}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	const p = 32
	for _, bm := range Benchmarks() {
		g := bm.Build(bm.Batch)
		b.Run(bm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := solveFresh(g, GTX1080Ti(p), Options{Policy: bm.Policy(p)})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Strategy) != g.Len() {
					b.Fatal("incomplete strategy")
				}
			}
		})
	}
}

func BenchmarkFig5_GenerateSeq(b *testing.B) {
	entries := []struct {
		name  string
		build func() *Graph
	}{
		{"InceptionV3", func() *Graph { return InceptionV3(128) }},
		{"Transformer", func() *Graph { return Transformer(BaseTransformer(64)) }},
		{"DenseNet", func() *Graph { return DenseNet(128, 8) }},
	}
	for _, e := range entries {
		g := e.build()
		b.Run(e.name, func(b *testing.B) {
			m := 0
			for i := 0; i < b.N; i++ {
				m = seq.Generate(g).MaxDepSize()
			}
			b.ReportMetric(float64(m), "maxDepSize")
		})
	}
}

// BenchmarkSolveWorkers scales the DP fill across worker counts on the
// largest paper solve (Transformer, p=32). The model is built outside the
// timer, so only ordering and solve are timed; results are byte-identical at
// every worker count.
func BenchmarkSolveWorkers(b *testing.B) {
	bm, err := BenchmarkByName("transformer")
	if err != nil {
		b.Fatal(err)
	}
	const p = 32
	g := bm.Build(bm.Batch)
	m, err := NewModel(g, GTX1080Ti(p), bm.Policy(p))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(context.Background(), m, seq.Generate(m.G), core.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig6(b *testing.B) {
	gpus := []struct {
		name string
		mk   func(int) Machine
	}{
		{"1080Ti", GTX1080Ti},
		{"2080Ti", RTX2080Ti},
	}
	for _, gpu := range gpus {
		for _, bm := range Benchmarks() {
			g := bm.Build(bm.Batch)
			for _, p := range []int{8, 32} {
				b.Run(fmt.Sprintf("%s/%s/p=%d", gpu.name, bm.Name, p), func(b *testing.B) {
					spec := gpu.mk(p)
					speedup := 0.0
					for i := 0; i < b.N; i++ {
						res, err := solveFresh(g, spec, Options{Policy: bm.Policy(p)})
						if err != nil {
							b.Fatal(err)
						}
						dp, err := solveFresh(g, spec, Options{Method: "dataparallel"})
						if err != nil {
							b.Fatal(err)
						}
						speedup, err = SimulatedSpeedup(g, res.Strategy, dp.Strategy, spec, bm.Batch)
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(speedup, "speedup")
				})
			}
		}
	}
}
