package graph

import (
	"slices"
	"strings"
	"testing"

	"pase/internal/itspace"
)

func lineGraph(n int) *Graph {
	g := New()
	var prev *Node
	for i := 0; i < n; i++ {
		nd := g.AddNode(&Node{
			Name:          "fc",
			Op:            OpFC,
			Space:         itspace.Space{{Name: "b", Size: 64}, {Name: "n", Size: 64}, {Name: "c", Size: 64}},
			Output:        TensorRef{Map: []int{0, 1}},
			Params:        []TensorRef{{Map: []int{1, 2}, Param: true}},
			FlopsPerPoint: 2,
		})
		if prev != nil {
			nd.Inputs = []TensorRef{{Map: []int{0, 2}}}
			g.AddEdge(prev, nd)
		}
		prev = nd
	}
	return g
}

func TestAddNodeAssignsIDs(t *testing.T) {
	g := lineGraph(3)
	for i, n := range g.Nodes {
		if n.ID != i {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
	}
}

func TestEdgesAndNeighbors(t *testing.T) {
	g := lineGraph(3)
	if got := g.Edges(); !slices.Equal(got, [][2]int{{0, 1}, {1, 2}}) {
		t.Fatalf("Edges() = %v", got)
	}
	if got := g.In(2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("In(2) = %v", got)
	}
	nb := g.Neighbors(1)
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Fatalf("Neighbors(1) = %v", nb)
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(1), g.Degree(0))
	}
}

func TestInputIndex(t *testing.T) {
	g := New()
	a := g.AddNode(&Node{Space: itspace.Space{{Name: "x", Size: 2}}, Output: TensorRef{Map: []int{0}}})
	b := g.AddNode(&Node{Space: itspace.Space{{Name: "x", Size: 2}}, Output: TensorRef{Map: []int{0}}})
	c := g.AddNode(&Node{
		Space:  itspace.Space{{Name: "x", Size: 2}},
		Output: TensorRef{Map: []int{0}},
		Inputs: []TensorRef{{Map: []int{0}}, {Map: []int{0}}},
	})
	g.AddEdge(a, c)
	g.AddEdge(b, c)
	if g.InputIndex(a.ID, c.ID) != 0 || g.InputIndex(b.ID, c.ID) != 1 {
		t.Fatal("input indices wrong")
	}
	if g.InputIndex(c.ID, a.ID) != -1 {
		t.Fatal("nonexistent edge found")
	}
}

func TestBFSOrderCoversAll(t *testing.T) {
	g := lineGraph(6)
	order := g.BFSOrder()
	if len(order) != 6 {
		t.Fatalf("BFS order has %d nodes", len(order))
	}
	seen := map[int]bool{}
	for _, v := range order {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
}

func TestWeaklyConnected(t *testing.T) {
	g := lineGraph(4)
	if !g.WeaklyConnected() {
		t.Fatal("line graph should be connected")
	}
	// 0 → 2 ← 1: node 1 is reached from node 0 only through an in-edge.
	v := New()
	for range 3 {
		v.AddNode(&Node{})
	}
	v.AddEdge(v.Nodes[0], v.Nodes[2])
	v.AddEdge(v.Nodes[1], v.Nodes[2])
	if !v.WeaklyConnected() {
		t.Fatal("0 → 2 ← 1 should be weakly connected")
	}
	// Add an isolated node.
	g.AddNode(&Node{Space: itspace.Space{{Name: "x", Size: 2}}, Output: TensorRef{Map: []int{0}}})
	if g.WeaklyConnected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := lineGraph(4) // degrees 1,2,2,1
	h := g.DegreeHistogram()
	if h[1] != 2 || h[2] != 2 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestValidateCatchesArityMismatch(t *testing.T) {
	g := lineGraph(3)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	// Break: drop the input ref of node 1 while keeping the edge.
	g.Nodes[1].Inputs = nil
	if err := g.Validate(); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// A self-loop's TX term has no place in the DP's recurrence (an edge is
// charged where its later end is sequenced), so the exact solve would miss
// it: Validate, which every model build, spec load and export runs, rejects
// one.
func TestValidateRejectsSelfLoop(t *testing.T) {
	g := lineGraph(2)
	n := g.Nodes[1]
	n.Inputs = append(n.Inputs, TensorRef{Map: []int{0, 2}})
	g.AddEdge(n, n)
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("Validate on a graph with edge 1→1 = %v, want a self-loop error", err)
	}
}

// Errors number a node's refs output first, then inputs, then params, and a
// valid graph's check allocates only the connectivity walk's two slices.
func TestValidateRefNumberingAndAllocs(t *testing.T) {
	g := lineGraph(3)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("Validate allocates %v times on a valid graph, want at most 2", allocs)
	}
	g.Nodes[1].Inputs[0].Offset = []int64{0}
	if err := g.Validate(); err == nil || err.Error() != "node 1 (fc): ref 1 offset arity mismatch" {
		t.Fatalf("bad input offset: %v", err)
	}
	g.Nodes[1].Inputs[0].Offset = nil
	g.Nodes[1].Params[0].Map = []int{1, 9}
	if err := g.Validate(); err == nil || err.Error() != "node 1 (fc): ref 2 tensor dim 1 maps to invalid iter dim 9" {
		t.Fatalf("bad param map: %v", err)
	}
}

func TestValidateCatchesBadMap(t *testing.T) {
	for _, bad := range []func(n *Node){
		func(n *Node) { n.Output = TensorRef{Map: []int{7}} },
		func(n *Node) { n.Output = TensorRef{Map: []int{-1}} },
		func(n *Node) { n.Output = TensorRef{Map: []int{3}} },
		func(n *Node) { n.NormDims = []int{-1} },
		func(n *Node) { n.NormDims = []int{3} },
	} {
		g := lineGraph(2)
		bad(g.Nodes[0])
		if err := g.Validate(); err == nil {
			t.Errorf("invalid map or norm dim accepted: output %v, norm dims %v", g.Nodes[0].Output.Map, g.Nodes[0].NormDims)
		}
	}
}

func TestTensorRefExtentOffset(t *testing.T) {
	sp := itspace.Space{{Name: "b", Size: 8}, {Name: "c", Size: 32}}
	r := TensorRef{Map: []int{0, 1}, Offset: []int64{0, 16}, Size: []int64{8, 16}}
	if r.Extent(sp, 1) != 16 {
		t.Fatalf("Extent = %d", r.Extent(sp, 1))
	}
	// A zero Size entry is the whole dim.
	if r.Size[1] = 0; r.Extent(sp, 1) != 32 {
		t.Fatalf("Extent with Size 0 = %d, want 32", r.Extent(sp, 1))
	}
}

func TestEffScale(t *testing.T) {
	if (TensorRef{}).EffScale() != 1 {
		t.Fatal("default scale not 1")
	}
	if (TensorRef{Scale: 4}).EffScale() != 4 {
		t.Fatal("scale 4 not honored")
	}
}

func TestStrategyValidateAndClone(t *testing.T) {
	g := lineGraph(2)
	s := Strategy{
		itspace.Config{8, 1, 1},
		itspace.Config{1, 4, 2},
	}
	if err := s.Validate(g, 8); err != nil {
		t.Fatalf("valid strategy rejected: %v", err)
	}
	c := s.Clone()
	c[0][0] = 1
	if s[0][0] != 8 {
		t.Fatal("clone aliases original")
	}
	bad := Strategy{itspace.Config{16, 1, 1}, itspace.Config{1, 1, 1}}
	if err := bad.Validate(g, 8); err == nil {
		t.Fatal("invalid strategy accepted")
	}
	short := Strategy{itspace.Config{1, 1, 1}}
	if err := short.Validate(g, 8); err == nil {
		t.Fatal("short strategy accepted")
	}
}

func TestOpTypeString(t *testing.T) {
	if OpConv2D.String() != "conv2d" || OpType(99).String() == "" {
		t.Fatal("OpType.String broken")
	}
}

// fanOutGraph builds source → {left, right} with the two out-edges of the
// source added in the given order.
func fanOutGraph(leftFirst bool) *Graph {
	g := New()
	sp := itspace.Space{{Name: "b", Size: 8}, {Name: "c", Size: 4}}
	src := g.AddNode(&Node{Name: "src", Op: OpFC, Space: sp, Output: TensorRef{Map: []int{0, 1}}, FlopsPerPoint: 2})
	left := g.AddNode(&Node{Name: "left", Op: OpFC, Space: sp, Output: TensorRef{Map: []int{0, 1}},
		Inputs: []TensorRef{{Map: []int{0, 1}}}, FlopsPerPoint: 2})
	right := g.AddNode(&Node{Name: "right", Op: OpFC, Space: sp, Output: TensorRef{Map: []int{0, 1}},
		Inputs: []TensorRef{{Map: []int{0, 1}}}, FlopsPerPoint: 2})
	if leftFirst {
		g.AddEdge(src, left)
		g.AddEdge(src, right)
	} else {
		g.AddEdge(src, right)
		g.AddEdge(src, left)
	}
	return g
}

func TestFingerprintIgnoresOutEdgeOrder(t *testing.T) {
	// Out-edge insertion order carries no semantics (every out-edge ships
	// the same output tensor), so it must not change the fingerprint.
	if fanOutGraph(true).Fingerprint() != fanOutGraph(false).Fingerprint() {
		t.Fatal("out-edge insertion order changed the graph fingerprint")
	}
}

func TestFingerprintSeesSemanticChanges(t *testing.T) {
	base := fanOutGraph(true).Fingerprint()
	for name, mutate := range map[string]func(g *Graph){
		"flops":     func(g *Graph) { g.Nodes[1].FlopsPerPoint = 4 },
		"dim size":  func(g *Graph) { g.Nodes[2].Space[0].Size = 16 },
		"dim name":  func(g *Graph) { g.Nodes[0].Space[1].Name = "k" },
		"op":        func(g *Graph) { g.Nodes[0].Op = OpConv2D },
		"param ref": func(g *Graph) { g.Nodes[1].Params = []TensorRef{{Map: []int{0, 1}, Param: true}} },
		"halo":      func(g *Graph) { g.Nodes[0].Halo = []int64{0, 1} },
		"norm dims": func(g *Graph) { g.Nodes[2].NormDims = []int{1} },
		"scale":     func(g *Graph) { g.Nodes[0].Output.Scale = 4 },
	} {
		g := fanOutGraph(true)
		mutate(g)
		if g.Fingerprint() == base {
			t.Errorf("%s: semantic change left fingerprint unchanged", name)
		}
	}
	// An extra edge changes the fingerprint even with nodes unchanged.
	g := fanOutGraph(true)
	g.Nodes[2].Inputs = append(g.Nodes[2].Inputs, TensorRef{Map: []int{0, 1}})
	g.AddEdge(g.Nodes[1], g.Nodes[2])
	if g.Fingerprint() == base {
		t.Error("added edge left fingerprint unchanged")
	}
}
