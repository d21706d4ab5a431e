package cost

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"pase/internal/graph"
	"pase/internal/machine"
	"pase/internal/models"
)

// edgeAudit classes every graph.Node field by whether a TX table reads it —
// the producer's Space and Output, the consumer's Space and the input it
// reads the edge through — with a mutation that keeps the graph valid. ends
// names the incident edges a TX-read field reaches: "in" (the node consumes),
// "out" (it produces) or "all". ID has no mutation: it is the node's index,
// which Validate and every table address by.
var edgeAudit = map[string]struct {
	txRead bool
	ends   string
	mutate func(n *graph.Node)
}{
	"ID":   {},
	"Name": {mutate: func(n *graph.Node) { n.Name += "'" }},
	"Op": {mutate: func(n *graph.Node) {
		if n.Op == graph.OpGeneric {
			n.Op = graph.OpEltwise
		} else {
			n.Op = graph.OpGeneric
		}
	}},
	"Space": {txRead: true, ends: "all", mutate: func(n *graph.Node) {
		n.Space = slices.Clone(n.Space)
		n.Space[0].Name += "'"
	}},
	"Inputs": {txRead: true, ends: "in", mutate: func(n *graph.Node) {
		n.Inputs = slices.Clone(n.Inputs)
		for i := range n.Inputs {
			n.Inputs[i].Scale = 2 * n.Inputs[i].EffScale()
		}
	}},
	"Params": {mutate: func(n *graph.Node) {
		n.Params = append(slices.Clone(n.Params), graph.TensorRef{Map: []int{0}, Param: true})
	}},
	"Output":        {txRead: true, ends: "out", mutate: func(n *graph.Node) { n.Output.Scale = 2 * n.Output.EffScale() }},
	"FlopsPerPoint": {mutate: func(n *graph.Node) { n.FlopsPerPoint *= 2 }},
	"Halo": {mutate: func(n *graph.Node) {
		h := make([]int64, len(n.Space))
		for i := range h {
			h[i] = 1
			if n.Halo != nil {
				h[i] += n.Halo[i]
			}
		}
		n.Halo = h
	}},
	"NormDims": {mutate: func(n *graph.Node) {
		if len(n.NormDims) > 0 {
			n.NormDims = nil
		} else {
			n.NormDims = []int{0}
		}
	}},
}

// Edge classes are keyed by exactly what a TX table reads: mutating any other
// node field leaves every edge class fingerprint and TX table as they were,
// and mutating a TX-read field moves the fingerprint of each edge that reads
// it and of no other. Either way the interned build stays bit-identical to
// the DisableInterning oracle. A graph.Node field this audit does not class
// fails it.
func TestEdgeClassAudit(t *testing.T) {
	node := reflect.TypeFor[graph.Node]()
	for i := range node.NumField() {
		name := node.Field(i).Name
		if _, ok := edgeAudit[name]; !ok {
			t.Errorf("graph.Node.%s is not classed as TX-read or not in edgeAudit", name)
		}
	}
	cases := []struct {
		model string
		pick  func(n *graph.Node) bool
	}{
		{"transformer", func(n *graph.Node) bool { return n.Name == "enc0_self_wo" }},
		{"inceptionv3", func(n *graph.Node) bool { return n.Halo != nil && n.ID > 0 }},
	}
	const p = 8
	for _, c := range cases {
		bm, err := models.ByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		spec, pol := machine.GTX1080Ti(p), bm.Policy(p)
		build := func(g *graph.Graph, bo BuildOptions) *Model {
			m, err := NewModelWith(context.Background(), g, spec, pol, bo)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		base := build(bm.Build(bm.Batch), BuildOptions{})
		v := slices.IndexFunc(base.G.Nodes, c.pick)
		if v < 0 || len(base.G.In(v)) == 0 || !slices.ContainsFunc(base.Edges(), func(e [2]int) bool { return e[0] == v }) {
			t.Fatalf("%s: no interior node to mutate", c.model)
		}
		for name, f := range edgeAudit {
			if f.mutate == nil {
				continue
			}
			t.Run(c.model+"/"+name, func(t *testing.T) {
				g := bm.Build(bm.Batch)
				f.mutate(g.Nodes[v])
				m := build(g, BuildOptions{})
				requireOracleTables(t, m, build(g, BuildOptions{DisableInterning: true}))
				for e, uv := range m.Edges() {
					reads := f.txRead && (f.ends == "all" && (uv[0] == v || uv[1] == v) ||
						f.ends == "in" && uv[1] == v || f.ends == "out" && uv[0] == v)
					if moved := m.EdgeClassFP(e) != base.EdgeClassFP(e); moved != reads {
						t.Errorf("edge %d %v: class fingerprint moved %v, want %v", e, uv, moved, reads)
					}
					if !f.txRead {
						requireSameTable(t, e, m, base)
					}
				}
			})
		}
	}
}

// requireSameTable fails unless edge e's TX table and transpose hold the same
// bits in m as in base.
func requireSameTable(t *testing.T, e int, m, base *Model) {
	t.Helper()
	a, ka := m.EdgeTable(e)
	b, kb := base.EdgeTable(e)
	at, _ := m.EdgeTableT(e)
	bt, _ := base.EdgeTableT(e)
	if ka != kb || !slices.Equal(a, b) || !slices.Equal(at, bt) {
		t.Errorf("edge %d: TX table changed under a field no TX table reads", e)
	}
}
