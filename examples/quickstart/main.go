// Quickstart: find an efficient parallelization strategy for AlexNet on a
// 32-GPU cluster — one cancellable, context-first request — then run the
// paper's full method comparison (Fig. 6) with Compare.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pase"
)

func main() {
	// Every solve is one request with a context: a deadline or cancellation
	// aborts the search mid-DP within milliseconds.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The paper's AlexNet benchmark: batch 128, ImageNet shapes.
	g := pase.AlexNet(128)

	// Four nodes of eight 1080Ti GPUs, PCIe peer-to-peer inside a node,
	// InfiniBand between nodes.
	cluster := pase.GTX1080Ti(32)

	// Run the paper's dependent-set dynamic program (Method "dp" is the
	// default). Solve is served by the package-default planner: the request
	// is canonically fingerprinted and the solved result cached.
	res, err := pase.Solve(ctx, pase.SolveRequest{G: g, Spec: cluster})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found best strategy in %v (model build %v, M=%d, %d DP states)\n",
		res.Timings.Total, res.Timings.Model, res.MaxDepSize, res.States)

	// An identical request is a cache hit: no model build, no DP run.
	again, err := pase.Solve(ctx, pase.SolveRequest{G: g, Spec: cluster})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("identical request again: %v (cached=%v)\n\n", again.Timings.Total, again.Cached)

	fmt.Println("layer            dims      configuration")
	for _, n := range g.Nodes {
		fmt.Printf("%-16s %-9s %v\n", n.Name, n.Space.Names(), res.Strategy[n.ID])
	}

	// The paper's evaluation is a comparison: data parallelism, the expert
	// strategy, the FlexFlow-style MCMC search, and the DP, each solved
	// through the same cached request path and simulated on the cluster.
	cmp, err := pase.Compare(ctx, pase.CompareRequest{
		G: g, Spec: cluster, Batch: 128, Family: "cnn",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmethod comparison (speedup over %s, paper Fig. 6):\n", cmp.Baseline)
	for _, e := range cmp.Entries {
		if e.Err != nil {
			fmt.Printf("%-14s error: %v\n", e.Method, e.Err)
			continue
		}
		fmt.Printf("%-14s cost %.4g s/step   step %6.2f ms   speedup %.2fx\n",
			e.Method, e.Result.Cost, e.Step.StepSeconds*1e3, e.Speedup)
	}
}
