package cost_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/spec"
)

// checkTXAgainstTXSeconds asserts that every cell of every edge's TX table
// and its transpose holds the bits TXSeconds computes from the graph for
// that configuration pair. TXSeconds prices one pair from scratch, with the
// per-cell divisions of the paper's formula, so it shares no arithmetic
// shortcut with the table build.
func checkTXAgainstTXSeconds(t *testing.T, g *graph.Graph, sp machine.Spec, pol itspace.EnumPolicy) {
	t.Helper()
	m, err := cost.NewModelWith(context.Background(), g, sp, pol, cost.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for e, uv := range m.Edges() {
		u, v := uv[0], uv[1]
		slot := g.InputIndex(u, v)
		cfgU, cfgV := m.Configs(u), m.Configs(v)
		tab, kv := m.EdgeTable(e)
		tabT, ku := m.EdgeTableT(e)
		if ku != len(cfgU) || kv != len(cfgV) || len(tab) != ku*kv || len(tabT) != ku*kv {
			t.Fatalf("edge %d (%d→%d): table %d and transpose %d for K %d×%d (strides %d, %d)",
				e, u, v, len(tab), len(tabT), len(cfgU), len(cfgV), kv, ku)
		}
		for cu, a := range cfgU {
			for cv, b := range cfgV {
				want := math.Float64bits(cost.TXSeconds(g.Nodes[u], g.Nodes[v], slot, a, b, sp))
				if got := math.Float64bits(tab[cu*kv+cv]); got != want {
					t.Fatalf("edge %d (%s→%s) %v→%v: table %v, TXSeconds %v",
						e, g.Nodes[u].Name, g.Nodes[v].Name, a, b, math.Float64frombits(got), math.Float64frombits(want))
				}
				if got := math.Float64bits(tabT[cv*ku+cu]); got != want {
					t.Fatalf("edge %d (%s→%s) %v→%v: transpose %v, TXSeconds %v",
						e, g.Nodes[u].Name, g.Nodes[v].Name, a, b, math.Float64frombits(got), math.Float64frombits(want))
				}
			}
		}
	}
}

// The TX tables of the paper models, a deep decoder stack and a DenseNet
// outside the registry equal TXSeconds bit for bit at p = 8 and 32.
func TestTXTablesMatchTXSecondsOnModels(t *testing.T) {
	type model struct {
		name   string
		g      *graph.Graph
		policy func(p int) itspace.EnumPolicy
	}
	var ms []model
	for _, name := range []string{"alexnet", "inceptionv3", "rnnlm", "transformer", "gptdeep:3"} {
		bm, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, model{name, bm.Build(bm.Batch), bm.Policy})
	}
	ms = append(ms, model{"densenet", models.DenseNet(128, 8), func(int) itspace.EnumPolicy { return itspace.EnumPolicy{} }})
	for _, mo := range ms {
		for _, p := range []int{8, 32} {
			t.Run(fmt.Sprintf("%s/p=%d", mo.name, p), func(t *testing.T) {
				checkTXAgainstTXSeconds(t, mo.g, machine.GTX1080Ti(p), mo.policy(p))
			})
		}
	}
}

// The same holds for the example specs, lowered with their own machine and
// policy.
func TestTXTablesMatchTXSecondsOnExampleSpecs(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 5 {
		t.Fatalf("found %d example specs, want 5", len(files))
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			ir, err := spec.Load(data)
			if err != nil {
				t.Fatal(err)
			}
			checkTXAgainstTXSeconds(t, ir.G, ir.Machine, ir.Policy)
		})
	}
}

// The same holds on random layer graphs whose edges carry concat windows
// (a producer tensor narrower than the consumer's dim, where effSplit scales
// and floors the consumer's split) and flatten groups (a 4-d activation read
// as one dim of a fully-connected layer), with extents that are not all
// powers of two.
func TestTXTablesMatchTXSecondsOnRandomLayerGraphs(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomWindowGraph(rng, 4+rng.Intn(5))
		p := []int{4, 8, 16}[rng.Intn(3)]
		t.Run(fmt.Sprintf("seed=%d/p=%d", seed, p), func(t *testing.T) {
			checkTXAgainstTXSeconds(t, g, machine.GTX1080Ti(p), itspace.EnumPolicy{})
		})
	}
}

// randomWindowGraph builds n layers: a run of conv-like layers (b, c, h, w)
// followed by fully-connected ones (b, n, c). Every layer after the first
// reads one earlier layer, a conv sometimes two. A conv reads a conv's channels through a
// window at a random offset of its own, wider channel dim; an FC reads a
// conv's output flattened into its c dim, and another FC's n dim through a
// window of its c dim.
func randomWindowGraph(rng *rand.Rand, n int) *graph.Graph {
	sizes := []int64{1, 2, 3, 4, 6, 8, 12, 16, 32}
	pick := func() int64 { return sizes[rng.Intn(len(sizes))] }
	// Few spatial extents, so that convs often share them and can join.
	spatial := func() int64 { return []int64{3, 8}[rng.Intn(2)] }
	convs := 1 + rng.Intn(n-1)
	g := graph.New()
	for i := 0; i < n; i++ {
		if i < convs {
			g.AddNode(&graph.Node{
				Name:          fmt.Sprintf("conv%d", i),
				Op:            graph.OpConv2D,
				Space:         itspace.Space{{Name: "b", Size: 8}, {Name: "c", Size: pick()}, {Name: "h", Size: spatial()}, {Name: "w", Size: spatial()}},
				Output:        graph.TensorRef{Map: []int{0, 1, 2, 3}},
				FlopsPerPoint: 2,
			})
			continue
		}
		g.AddNode(&graph.Node{
			Name:          fmt.Sprintf("fc%d", i),
			Op:            graph.OpFC,
			Space:         itspace.Space{{Name: "b", Size: 8}, {Name: "n", Size: pick()}, {Name: "c", Size: pick()}},
			Output:        graph.TensorRef{Map: []int{0, 1}},
			Params:        []graph.TensorRef{{Map: []int{1, 2}, Param: true}},
			FlopsPerPoint: 2,
		})
	}
	// window widens dim d of consumer v to hold a producer extent of s at a
	// random offset and returns that offset.
	window := func(v *graph.Node, d int, s int64) int64 {
		if v.Space[d].Size < s {
			v.Space[d].Size = s
		}
		if rng.Intn(2) == 0 {
			v.Space[d].Size += s * int64(rng.Intn(3))
		}
		return rng.Int63n(v.Space[d].Size - s + 1)
	}
	for i := 1; i < n; i++ {
		u, v := g.Nodes[rng.Intn(i)], g.Nodes[i]
		if i < convs {
			// A second parent joins only when its spatial extents match.
			parents := []*graph.Node{u}
			if u2 := g.Nodes[rng.Intn(i)]; u2 != u && rng.Intn(2) == 0 && u2.Space[2] == u.Space[2] && u2.Space[3] == u.Space[3] {
				parents = append(parents, u2)
			}
			v.Space[2], v.Space[3] = u.Space[2], u.Space[3]
			for _, u := range parents {
				c := u.Space[1].Size
				off := window(v, 1, c)
				v.Inputs = append(v.Inputs, graph.TensorRef{
					Map:    []int{0, 1, 2, 3},
					Offset: []int64{0, off, 0, 0},
					Size:   []int64{0, c, 0, 0},
				})
				g.AddEdge(u, v)
			}
			continue
		}
		// An FC layer reads one parent: a flatten and a window onto the same
		// c dim would have to agree on its extent.
		if u.ID < convs {
			v.Space[2].Size = u.Space[1].Size * u.Space[2].Size * u.Space[3].Size
			v.Inputs = append(v.Inputs, graph.TensorRef{Map: []int{0, 2, 2, 2}})
		} else {
			s := u.Space[1].Size
			off := window(v, 2, s)
			v.Inputs = append(v.Inputs, graph.TensorRef{Map: []int{0, 2}, Offset: []int64{0, off}, Size: []int64{0, s}})
		}
		g.AddEdge(u, v)
	}
	return g
}
