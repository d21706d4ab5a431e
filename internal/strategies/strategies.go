// Package strategies provides the baseline parallelization strategies the
// paper evaluates against (Section IV):
//
//   - pure data parallelism, the standard practice;
//   - "one weird trick" (OWT, Krizhevsky 2014) for CNNs: data parallelism on
//     convolutions, parameter parallelism on fully-connected layers;
//   - the GNMT-style data+pipeline expert strategy for RNNs (Wu et al. 2016):
//     RNN layers spread across devices (pipeline) and replicated across the
//     rest (data);
//   - the Mesh-TensorFlow hybrid for Transformers (Shazeer et al. 2018):
//     batch dimension split m ways on every layer, model dimensions
//     (vocabulary, feed-forward hidden, attention heads) split n ways.
package strategies

import (
	"fmt"
	"strings"

	"pase/internal/graph"
	"pase/internal/itspace"
)

// largestSplit returns the largest factor c ≤ want that validly splits
// dimension d of the space on p devices alongside the already-chosen cfg
// (degree budget respected).
func largestSplit(sp itspace.Space, cfg itspace.Config, d, want, p int) int {
	if d < 0 {
		return 1
	}
	budget := p / cfg.Degree()
	best := 1
	for c := 1; c <= want && c <= budget; c++ {
		if p%c == 0 && sp[d].Size%int64(c) == 0 {
			best = c
		}
	}
	return best
}

// DataParallel returns the pure data-parallel strategy: every node's batch
// dimension (named "b") split as many ways as possible, all other dims
// unsplit.
func DataParallel(g *graph.Graph, p int) graph.Strategy {
	s := make(graph.Strategy, g.Len())
	for _, n := range g.Nodes {
		s[n.ID] = itspace.DataParallel(n.Space, p, "b")
	}
	return s
}

// OWT implements Krizhevsky's "one weird trick" for CNNs: convolution, pool,
// and other spatial layers use data parallelism; fully-connected and softmax
// layers switch to parameter parallelism, splitting the out-channel (or
// vocabulary) dimension.
func OWT(g *graph.Graph, p int) graph.Strategy {
	s := make(graph.Strategy, g.Len())
	for _, n := range g.Nodes {
		cfg := unit(n.Space)
		switch n.Op {
		case graph.OpFC, graph.OpGEMM:
			d := firstDim(n.Space, "n", "v")
			cfg[d] = largestSplit(n.Space, cfg, d, p, p)
		case graph.OpSoftmax:
			d := firstDim(n.Space, "v", "n")
			cfg[d] = largestSplit(n.Space, cfg, d, p, p)
		default:
			d := n.Space.DimIndex("b")
			cfg[d] = largestSplit(n.Space, cfg, d, p, p)
		}
		s[n.ID] = cfg
	}
	return s
}

// RNNExpert implements the GNMT-style data+pipeline strategy for RNN language
// models: the RNN operator's layer dimension is fully split (placing layers
// on different device groups — pipeline parallelism within the folded RNN
// vertex), the batch dimension is split across the remaining devices (data
// parallelism), and the surrounding embedding/projection/softmax layers use
// data parallelism.
func RNNExpert(g *graph.Graph, p int) graph.Strategy {
	s := make(graph.Strategy, g.Len())
	for _, n := range g.Nodes {
		cfg := unit(n.Space)
		if n.Op == graph.OpLSTM {
			l := n.Space.DimIndex("l")
			cfg[l] = largestSplit(n.Space, cfg, l, p, p)
			b := n.Space.DimIndex("b")
			cfg[b] = largestSplit(n.Space, cfg, b, p/cfg.Degree(), p)
		} else {
			b := n.Space.DimIndex("b")
			cfg[b] = largestSplit(n.Space, cfg, b, p, p)
		}
		s[n.ID] = cfg
	}
	return s
}

// TransformerExpert implements the Mesh-TensorFlow hybrid layout: the batch
// dimension of every layer is split m ways and the model dimensions —
// vocabulary (v), feed-forward hidden (e), attention heads (h) — are split n
// ways, with m·n = p and m ≥ n (the layout Shazeer et al. recommend for
// training large Transformers).
func TransformerExpert(g *graph.Graph, p int) graph.Strategy {
	m, n := meshSplit(p)
	s := make(graph.Strategy, g.Len())
	for _, nd := range g.Nodes {
		cfg := unit(nd.Space)
		if b := nd.Space.DimIndex("b"); b >= 0 {
			cfg[b] = largestSplit(nd.Space, cfg, b, m, p)
		}
		if d := firstDim(nd.Space, "v", "e", "h"); d >= 0 {
			cfg[d] = largestSplit(nd.Space, cfg, d, n, p)
		}
		s[nd.ID] = cfg
	}
	return s
}

// meshSplit factors p = m·n with m, n powers of two, m ≥ n, and the pair as
// balanced as possible (n is the largest power of two with n² ≤ p).
func meshSplit(p int) (m, n int) {
	n = 1
	for (n*2)*(n*2) <= p && p%(n*2) == 0 {
		n *= 2
	}
	return p / n, n
}

// Families lists the expert-strategy families Expert accepts, in a stable
// order — the validation domain of the planner's "expert:<family>" method.
func Families() []string { return []string{"cnn", "rnn", "transformer"} }

// Expert selects the paper's expert strategy for a model family. Families:
// "cnn" → OWT, "rnn" → RNNExpert, "transformer" → TransformerExpert.
func Expert(family string, g *graph.Graph, p int) (graph.Strategy, error) {
	switch family {
	case "cnn":
		return OWT(g, p), nil
	case "rnn":
		return RNNExpert(g, p), nil
	case "transformer":
		return TransformerExpert(g, p), nil
	default:
		return nil, fmt.Errorf("strategies: unknown model family %q", family)
	}
}

// ForMethod resolves a baseline method name — the strategy-valued methods of
// the planner's unified solve API — to its strategy: "dataparallel" is pure
// data parallelism, "expert:<family>" is the paper's expert baseline for
// family "cnn", "rnn", or "transformer".
func ForMethod(method string, g *graph.Graph, p int) (graph.Strategy, error) {
	switch {
	case method == "dataparallel":
		return DataParallel(g, p), nil
	case strings.HasPrefix(method, "expert:"):
		return Expert(strings.TrimPrefix(method, "expert:"), g, p)
	}
	return nil, fmt.Errorf("strategies: %q is not a baseline method (want dataparallel or expert:<family>)", method)
}

// IsBaselineMethod reports whether method names a fixed strategy this package
// provides (no search involved): "dataparallel" or "expert:<family>".
func IsBaselineMethod(method string) bool {
	return method == "dataparallel" || strings.HasPrefix(method, "expert:")
}

func unit(sp itspace.Space) itspace.Config {
	c := make(itspace.Config, len(sp))
	for i := range c {
		c[i] = 1
	}
	return c
}

func firstDim(sp itspace.Space, names ...string) int {
	for _, nm := range names {
		if d := sp.DimIndex(nm); d >= 0 {
			return d
		}
	}
	return -1
}
