package pase

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - BenchmarkAblationOrdering: GENERATESEQ vs breadth-first ordering on
//     graphs where both complete — the paper's core algorithmic claim, with
//     the DP state count reported as a metric.
//   - BenchmarkAblationPolicy: configuration-enumeration policies on the
//     Transformer (the graph where K explodes): unrestricted vs MaxSplitDims
//     caps vs RequireFullDegree, reporting both search time and the relative
//     cost of the found strategy (quality lost to pruning).

import (
	"errors"
	"fmt"
	"testing"
)

func BenchmarkAblationOrdering(b *testing.B) {
	for _, e := range []struct {
		name  string
		build func() *Graph
	}{
		{"AlexNet", func() *Graph { return AlexNet(128) }},
		{"RNNLM", func() *Graph { return RNNLM(64) }},
		{"GNMT", func() *Graph { return GNMT(64) }},
	} {
		g := e.build()
		for _, ord := range []struct {
			name string
			bf   bool
		}{{"generateseq", false}, {"breadthfirst", true}} {
			b.Run(e.name+"/"+ord.name, func(b *testing.B) {
				states := int64(0)
				for i := 0; i < b.N; i++ {
					m, err := NewModel(g, GTX1080Ti(16), EnumPolicy{MaxSplitDims: 3})
					if err != nil {
						b.Fatal(err)
					}
					res, err := solveModel(m, Options{
						BreadthFirst:    ord.bf,
						Policy:          EnumPolicy{MaxSplitDims: 3},
						MaxTableEntries: 1 << 27,
					})
					if errors.Is(err, ErrOOM) {
						b.Skip("OOM under this ordering")
					}
					if err != nil {
						b.Fatal(err)
					}
					states = res.States
				}
				b.ReportMetric(float64(states), "dp-states")
			})
		}
	}
}

// BenchmarkAblationWorkers measures the parallel DP-table fill (extension
// over the paper's single-threaded prototype) on InceptionV3 at p = 32.
func BenchmarkAblationWorkers(b *testing.B) {
	g := InceptionV3(128)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := NewModel(g, GTX1080Ti(32), EnumPolicy{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := solveModel(m, Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationPolicy(b *testing.B) {
	bm, err := BenchmarkByName("transformer")
	if err != nil {
		b.Fatal(err)
	}
	g := bm.Build(bm.Batch)
	const p = 16
	policies := []struct {
		name string
		pol  EnumPolicy
	}{
		{"maxsplit2", EnumPolicy{MaxSplitDims: 2}},
		{"maxsplit3", EnumPolicy{MaxSplitDims: 3}},
		{"unrestricted", EnumPolicy{}},
		{"fulldegree", EnumPolicy{RequireFullDegree: true, MaxSplitDims: 3}},
	}
	// Reference cost: the least-restricted policy's optimum.
	ref, err := solve(g, GTX1080Ti(p), Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, pc := range policies {
		b.Run(pc.name, func(b *testing.B) {
			cost := 0.0
			for i := 0; i < b.N; i++ {
				m, err := NewModel(g, GTX1080Ti(p), pc.pol)
				if err != nil {
					b.Fatal(err)
				}
				res, err := solveModel(m, Options{Policy: pc.pol})
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost
			}
			// >1 means the pruned search space lost strategy quality.
			b.ReportMetric(cost/ref.Cost, "cost-vs-unrestricted")
		})
	}
}
