// Package memory estimates the per-device memory footprint of a
// parallelization strategy, following the paper's Section II discussion: the
// footprint is (i) the space for input/output tensors and parameters held by
// the device, plus (ii) communication buffers proportional to the
// communication volume. The paper argues that minimizing training time also
// indirectly minimizes memory — (i) shrinks uniformly with the distribution
// degree and (ii) is proportional to exactly what the cost objective
// minimizes. This package makes that claim checkable.
package memory

import (
	"fmt"

	"pase/internal/cost"
	"pase/internal/graph"
)

// Footprint is the per-device memory estimate of a strategy, in bytes.
type Footprint struct {
	// Activations is the space for layer outputs held per device (training
	// keeps them for the backward pass).
	Activations float64
	// Parameters is the space for weights held per device, including
	// replicas, with the standard 3× multiplier for gradient + optimizer
	// state (momentum-style).
	Parameters float64
	// CommBuffers is the space for collective and redistribution staging
	// buffers, proportional to the communication volume (paper §II (ii)).
	CommBuffers float64
}

// Total returns the total per-device bytes.
func (f Footprint) Total() float64 {
	return f.Activations + f.Parameters + f.CommBuffers
}

// paramStateFactor covers weight + gradient + optimizer state.
const paramStateFactor = 3

// Estimate computes the per-device footprint of the strategy.
func Estimate(g *graph.Graph, s graph.Strategy) (Footprint, error) {
	if len(s) != g.Len() {
		return Footprint{}, fmt.Errorf("memory: strategy covers %d of %d nodes", len(s), g.Len())
	}
	var f Footprint
	for _, n := range g.Nodes {
		c := s[n.ID]
		// Output activation block per device.
		outBlock := 1.0
		for t := range n.Output.Map {
			outBlock *= float64(n.Output.Extent(n.Space, t)) / float64(c[n.Output.Map[t]])
		}
		f.Activations += float64(outBlock * n.Output.EffScale() * cost.BytesPerElem)

		// Parameter blocks per device (replicated dims do not shrink the
		// block, so replication is captured automatically).
		for _, pr := range n.Params {
			pBlock := 1.0
			for t := range pr.Map {
				pBlock *= float64(pr.Extent(n.Space, t)) / float64(c[pr.Map[t]])
			}
			f.Parameters += float64(pBlock * pr.EffScale() * cost.BytesPerElem * paramStateFactor)
		}

		// Collective staging buffers.
		for _, cl := range cost.TLBreakdown(n, c).Colls {
			f.CommBuffers += cl.PayloadBytes
		}
	}
	// Redistribution staging buffers along edges.
	for _, e := range g.Edges() {
		u, v := g.Nodes[e[0]], g.Nodes[e[1]]
		f.CommBuffers += cost.TXBytes(u, v, g.InputIndex(e[0], e[1]), s[e[0]], s[e[1]])
	}
	return f, nil
}
