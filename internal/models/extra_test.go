package models

import (
	"context"
	"testing"

	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/seq"
	"pase/internal/strategies"
)

func TestVGG16Structure(t *testing.T) {
	g := VGG16(128)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Path graph: 13 convs + 5 pools + 3 FCs + softmax = 22 nodes.
	if g.Len() != 22 {
		t.Fatalf("VGG16 has %d nodes, want 22", g.Len())
	}
	h := g.DegreeHistogram()
	if h[1] != 2 || h[2] != 20 {
		t.Fatalf("not a path graph: %v", h)
	}
	if m := seq.Generate(g).MaxDepSize(); m != 1 {
		t.Fatalf("M = %d", m)
	}
}

func TestVGG16SolvePrefersParameterParallelFCs(t *testing.T) {
	g := VGG16(128)
	p := 16
	m, err := cost.NewModel(g, machine.GTX1080Ti(p), itspace.EnumPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(context.Background(), m, seq.Generate(m.G), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dpIdx, err := m.IdxFromStrategy(strategies.DataParallel(m.G, m.P()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost >= m.EvalIdx(dpIdx) {
		t.Fatal("solver not below data parallelism on VGG16")
	}
	// The ~120M-parameter FC head must not stay batch-only (that is OWT's
	// whole point on VGG-class networks).
	for _, n := range g.Nodes {
		if n.Name == "fc1" {
			cfg := res.Strategy[n.ID]
			if cfg[1] == 1 && cfg[2] == 1 {
				t.Fatalf("fc1 left fully replicated: %v", cfg)
			}
		}
	}
}

func TestGNMTStructure(t *testing.T) {
	g := GNMT(64)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Folded LSTM vertices for both stacks.
	lstms := 0
	for _, n := range g.Nodes {
		if n.Space.Names() == "lbsde" {
			lstms++
		}
	}
	if lstms != 2 {
		t.Fatalf("GNMT has %d folded LSTM vertices, want 2", lstms)
	}
	// Two embeddings make it a DAG with a join at attention; GENERATESEQ
	// must keep it cheap.
	if m := seq.Generate(g).MaxDepSize(); m > 3 {
		t.Fatalf("GNMT GENERATESEQ M = %d", m)
	}
}

func TestGNMTSolveBeatsBaselines(t *testing.T) {
	g := GNMT(64)
	p := 16
	m, err := cost.NewModel(g, machine.GTX1080Ti(p), itspace.EnumPolicy{MaxSplitDims: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(context.Background(), m, seq.Generate(m.G), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dp := strategies.DataParallel(g, p)
	dpCost, err := m.Eval(dp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost >= dpCost {
		t.Fatalf("GNMT: solver %.4g not below DP %.4g", res.Cost, dpCost)
	}
	exp := strategies.RNNExpert(g, p)
	expCost, err := m.Eval(exp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > expCost*(1+1e-9) {
		t.Fatalf("GNMT: solver %.4g worse than RNN expert %.4g", res.Cost, expCost)
	}
}

// Cross-model invariant: every edge's producer output arity matches the
// consumer input ref arity (up to a flatten group), the contract TXBytes
// relies on.
func TestAllModelsEdgeArityConsistent(t *testing.T) {
	zoo := map[string]*graph.Graph{
		"alexnet":     AlexNet(128),
		"inception":   InceptionV3(128),
		"rnnlm":       RNNLM(64),
		"transformer": Transformer(BaseTransformer(64)),
		"densenet":    DenseNet(128, 6),
		"vgg16":       VGG16(128),
		"gnmt":        GNMT(64),
	}
	total := 0
	for name, g := range zoo {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, e := range g.Edges() {
			u, v := g.Nodes[e[0]], g.Nodes[e[1]]
			in := v.Inputs[g.InputIndex(e[0], e[1])]
			if len(in.Map) < len(u.Output.Map) {
				t.Fatalf("%s: edge %s -> %s consumer arity %d below producer %d",
					name, u.Name, v.Name, len(in.Map), len(u.Output.Map))
			}
			total++
		}
	}
	if total < 100 {
		t.Fatalf("only %d edges checked across the zoo", total)
	}
}
