// Package export serializes parallelization strategies to JSON so they can
// be handed to execution frameworks. The paper notes (§VI) that systems like
// Mesh-TensorFlow and GShard "enable automatically converting these
// user-specified strategies into efficient parallel programs" — this is the
// interchange format for that hand-off.
package export

import (
	"encoding/json"
	"fmt"
	"io"

	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/itspace"
)

// Layer is one node's strategy entry.
type Layer struct {
	// Name is the layer's name in the computation graph.
	Name string `json:"name"`
	// Op is the layer kind (fc, conv2d, lstm, ...).
	Op string `json:"op"`
	// Dims is the iteration-space dimension string, e.g. "bnc".
	Dims string `json:"dims"`
	// Config is the per-dimension split factor tuple.
	Config []int `json:"config"`
}

// Document is a complete serialized strategy.
type Document struct {
	// Model names the network the strategy parallelizes.
	Model string `json:"model"`
	// Devices is p, the device count the strategy was computed for.
	Devices int `json:"devices"`
	// CostSeconds is the cost model's estimated per-step time, if known.
	CostSeconds float64 `json:"cost_seconds,omitempty"`
	// Provenance, when set, records how the strategy was produced; its keys
	// sit flat in the document, between cost_seconds and layers.
	Provenance
	// Layers holds one entry per node, in graph node order.
	Layers []Layer `json:"layers"`
}

// Provenance records how a strategy was produced. It is per solve: a
// result served from cache, or to a request that rode along on an identical
// in-flight solve, carries the provenance of the solve that produced it.
type Provenance struct {
	// Fingerprint is the canonical fingerprint (hex) of the solve request —
	// the planner/daemon cache key, so consumers can correlate exported
	// documents with served requests. Empty for a document built from a
	// bare strategy (FromStrategy), which no solve produced.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Method is the normalized solve method: "dp" (the paper's dynamic
	// program), "beam" (the anytime bounded-width DP), "mcmc",
	// "dataparallel", or "expert:<family>".
	Method string `json:"method,omitempty"`
	// Gap is the tracked optimality gap of a beam solve: the true optimum
	// lies in [cost/(1+Gap), cost]. Zero for exact solves and for heuristics
	// that track no bound (mcmc, baselines — see Exact).
	Gap float64 `json:"gap,omitempty"`
	// Exact marks the cost as provably the model's optimum: always for "dp",
	// for "beam" when no frontier truncation occurred (or the gap closed to
	// zero), never for mcmc and the baselines.
	Exact bool `json:"exact,omitempty"`
	// BeamWidth is the frontier width a beam solve ran at — a "beam"
	// request's resolved width, or a degraded "dp" request's; zero for every
	// other solve.
	BeamWidth int `json:"beam_width,omitempty"`
	// ModelInfo is the searched cost model's K and table sharing; zero for
	// the baselines, which build no model.
	cost.ModelInfo
	// DeltaResolve marks an incremental re-solve: the dp solve kept some
	// tables of the planner's last dp solve, those whose content key it
	// holds, and filled the rest.
	DeltaResolve bool `json:"delta_resolve,omitempty"`
	// Degraded marks a "dp" request served through the planner's
	// degradation ladder: a bounded-width beam solve ran instead of the exact
	// DP (Method still reports "dp"), so the strategy is valid and its cost
	// realizable, Gap and BeamWidth carry its quality contract, and Exact is
	// false unless the beam proved exactness anyway. DegradeReason says why:
	// "oom" (the exact solve deterministically exceeds its table budget) or
	// "pressure" (a deep admission queue — transient).
	Degraded      bool   `json:"degraded,omitempty"`
	DegradeReason string `json:"degrade_reason,omitempty"`
}

// FromStrategy builds a Document from a validated strategy.
func FromStrategy(model string, g *graph.Graph, s graph.Strategy, devices int, costSeconds float64) (*Document, error) {
	if err := s.Validate(g, devices); err != nil {
		return nil, err
	}
	doc := &Document{Model: model, Devices: devices, CostSeconds: costSeconds}
	for _, n := range g.Nodes {
		cfg := make([]int, len(s[n.ID]))
		copy(cfg, s[n.ID])
		doc.Layers = append(doc.Layers, Layer{
			Name:   n.Name,
			Op:     n.Op.String(),
			Dims:   n.Space.Names(),
			Config: cfg,
		})
	}
	return doc, nil
}

// Write serializes the document as indented JSON.
func (d *Document) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Read parses a document.
func Read(r io.Reader) (*Document, error) {
	var d Document
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	return &d, nil
}

// ToStrategy reconstructs and validates the strategy against a graph. Layers
// are matched by position and cross-checked by name.
func (d *Document) ToStrategy(g *graph.Graph) (graph.Strategy, error) {
	if len(d.Layers) != g.Len() {
		return nil, fmt.Errorf("export: document has %d layers, graph has %d", len(d.Layers), g.Len())
	}
	s := make(graph.Strategy, g.Len())
	for i, l := range d.Layers {
		n := g.Nodes[i]
		if l.Name != n.Name {
			return nil, fmt.Errorf("export: layer %d is %q in document but %q in graph", i, l.Name, n.Name)
		}
		s[i] = itspace.Config(append([]int(nil), l.Config...))
	}
	if err := s.Validate(g, d.Devices); err != nil {
		return nil, err
	}
	return s, nil
}
