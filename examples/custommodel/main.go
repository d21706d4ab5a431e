// Custommodel: build your own network with the graph builder and let PaSE
// parallelize it. The model here is an embedding-dominated recommendation
// scorer — a workload shape the paper's intro motivates: its parameters are
// concentrated in a million-row embedding table and wide projection layers
// that pure data parallelism replicates at great cost.
//
//	go run ./examples/custommodel
package main

import (
	"context"
	"fmt"
	"log"

	"pase"
)

func main() {
	const (
		batch   = 256
		p       = 16
		nItems  = 1 << 20 // one million items
		history = 16      // items per user history
	)

	b := pase.NewBuilder()
	// Sparse tower: a huge embedding table, the data-parallel killer
	// (a replicated table means a giant gradient all-reduce every step).
	emb := b.Embedding("item_embedding", batch, history, 128, nItems)

	// Dense projections over the embedded history.
	h1 := b.Projection("dense1", emb, batch, history, 4096, 128)
	h2 := b.Projection("dense2", h1, batch, history, 1024, 4096)

	// Score against the full catalogue and normalize.
	scores := b.Projection("score", h2, batch, history, nItems, 1024)
	b.SeqSoftmax("softmax", scores, batch, history, nItems)

	g := b.G
	if err := g.Validate(); err != nil {
		log.Fatalf("graph invalid: %v", err)
	}

	cluster := pase.RTX2080Ti(p)
	res, err := pase.Solve(context.Background(), pase.SolveRequest{G: g, Spec: cluster})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("layer            dims     configuration")
	for _, n := range g.Nodes {
		fmt.Printf("%-16s %-8s %v\n", n.Name, n.Space.Names(), res.Strategy[n.ID])
	}

	// The baseline is a method on the same request path.
	dp, err := pase.Solve(context.Background(), pase.SolveRequest{
		G: g, Spec: cluster, Opts: pase.Options{Method: "dataparallel"},
	})
	if err != nil {
		log.Fatal(err)
	}
	sp, err := pase.SimulatedSpeedup(g, res.Strategy, dp.Strategy, cluster, batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPaSE vs data parallelism on %d × %s: %.2fx\n", p, cluster.Name, sp)
}
