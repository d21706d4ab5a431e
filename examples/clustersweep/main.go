// Clustersweep: sweep device counts and both GPU generations for one model,
// reproducing a single panel of the paper's Fig. 6 — how the win over data
// parallelism grows with scale and shrinks with machine balance. The sweep's
// eight independent solves fan out concurrently through a planner's batch
// API instead of running one by one, and a pair of "what-if" single-layer
// edits afterwards shows the planner's cross-request sharing: the edited
// graphs' unchanged classes resolve from the class store, and a small
// enough edit is served by incremental delta re-solve.
//
//	go run ./examples/clustersweep            # Transformer by default
//	go run ./examples/clustersweep -model rnnlm
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"pase"
	"pase/internal/report"
)

func main() {
	model := flag.String("model", "transformer", "benchmark model to sweep")
	flag.Parse()

	bm, err := pase.BenchmarkByName(*model)
	if err != nil {
		log.Fatal(err)
	}
	g := bm.Build(bm.Batch)

	// One batch of (p, machine) points; the planner fans them across a
	// worker pool and dedups any repeats.
	ps := []int{4, 8, 16, 32}
	makers := []func(int) pase.Machine{pase.GTX1080Ti, pase.RTX2080Ti}
	var reqs []pase.SolveRequest
	for _, p := range ps {
		for _, mk := range makers {
			reqs = append(reqs, pase.SolveRequest{
				G:    g,
				Spec: mk(p),
				Opts: pase.Options{Policy: bm.Policy(p)},
			})
		}
	}
	// Cancelling this context (^C handling, a deadline) would abort every
	// solve in the batch mid-DP.
	pl := pase.NewPlanner(pase.PlannerConfig{})
	items := pl.SolveBatch(context.Background(), reqs)

	tb := &report.Table{
		Title: fmt.Sprintf("%s: simulated speedup of PaSE over data parallelism", bm.Name),
		Header: []string{"p", "K", "classes V/E", "shared MB", "store hits", "1080Ti step (ms)", "1080Ti speedup",
			"2080Ti step (ms)", "2080Ti speedup"},
	}
	for pi, p := range ps {
		var vals []any
		var kEffs, classes, shared, storeHits []string
		for mi := range makers {
			item := items[pi*len(makers)+mi]
			if item.Err != nil {
				log.Fatal(item.Err)
			}
			res, spec := item.Result, reqs[pi*len(makers)+mi].Spec
			kEffs = append(kEffs, fmt.Sprintf("%d", res.KEffective))
			// Structural sharing: repeated layers collapse to a handful of
			// vertex/edge table classes, and the shared bytes are what the
			// sweep point did NOT have to build or hold per occurrence.
			classes = append(classes, fmt.Sprintf("%d/%d", res.VertexClasses, res.EdgeClasses))
			shared = append(shared, fmt.Sprintf("%.1f", float64(res.SharedTableBytes)/1e6))
			// Cross-request sharing: class tables this point's model build
			// resolved from the planner's store — classes some other sweep
			// point (or a concurrent build) had already constructed.
			storeHits = append(storeHits, fmt.Sprintf("%d (%.1f MB)", res.ClassStoreHits, float64(res.ClassStoreBytes)/1e6))
			// The baseline is a method on the same request path.
			dp, err := pl.Solve(context.Background(), pase.SolveRequest{
				G: g, Spec: spec, Opts: pase.Options{Method: "dataparallel"},
			})
			if err != nil {
				log.Fatal(err)
			}
			step, err := pase.Simulate(g, res.Strategy, spec, bm.Batch)
			if err != nil {
				log.Fatal(err)
			}
			sp, err := pase.SimulatedSpeedup(g, res.Strategy, dp.Strategy, spec, bm.Batch)
			if err != nil {
				log.Fatal(err)
			}
			vals = append(vals, fmt.Sprintf("%.2f", step.StepSeconds*1e3), fmt.Sprintf("%.2fx", sp))
		}
		// Collapse per-machine columns that agree; join them when the two
		// GPU generations differ.
		squash := func(vs []string, sep string) string {
			out := vs[0]
			for _, v := range vs[1:] {
				if v != out {
					return strings.Join(vs, sep)
				}
			}
			return out
		}
		tb.Add(append([]any{p, squash(kEffs, "/"), squash(classes, " "), squash(shared, "/"), squash(storeHits, " / ")}, vals...)...)
	}
	if err := tb.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	// What-if re-solves: two successive single-layer FLOPs edits at the
	// largest sweep point. Each edited graph is a DISTINCT graph, yet its
	// unchanged classes all resolve from the planner's class store
	// (cross-request sharing), and the second edit — a small delta against
	// the first — re-fills only the DP tables it dirtied.
	pBig := ps[len(ps)-1]
	fmt.Println()
	for i, factor := range []float64{1.05, 1.10} {
		wg := bm.Build(bm.Batch)
		// An early node keeps the delta small: dirty DP tables cascade to
		// their reader positions, which sit before the node in the ordering.
		wg.Nodes[len(wg.Nodes)/8].FlopsPerPoint *= factor
		res, err := pl.Solve(context.Background(), pase.SolveRequest{
			G:    wg,
			Spec: pase.GTX1080Ti(pBig),
			Opts: pase.Options{Policy: bm.Policy(pBig)},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("what-if edit %d (flops ×%.2f at p=%d): cost %.4g s/step, %d class-store hits (%.1f MB aliased), delta re-solve %v\n",
			i+1, factor, pBig, res.Cost, res.ClassStoreHits, float64(res.ClassStoreBytes)/1e6, res.DeltaResolve)
	}

	st := pl.Stats()
	fmt.Printf("\nplanner: %d solves, %d model builds\n",
		st.Solves, st.ModelBuilds)
	// Cross-sweep class-store totals: hit rate over every class reference the
	// sweep's model builds made, and the cumulative table bytes hits aliased
	// instead of rebuilding.
	if refs := st.ClassStoreHits + st.ClassStoreMisses; refs > 0 {
		fmt.Printf("class store: %d/%d references hit (%.0f%%), %.1f MB saved, %.1f MB resident\n",
			st.ClassStoreHits, refs, 100*float64(st.ClassStoreHits)/float64(refs),
			float64(st.ClassStoreSavedBytes)/1e6, float64(st.ClassStoreBytes)/1e6)
	}
}
