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

// Dead-end elimination removes no configuration any optimum uses: on random
// layer graphs small enough to enumerate, every strategy whose EvalIdx is the
// least keeps each of its configurations in the eliminated model, and the
// eliminated model's strategies attain that least cost, bit for bit, exactly
// as often.
func FuzzEliminateKeepsOptimum(f *testing.F) {
	for seed := int64(1); seed <= 24; seed++ {
		f.Add(seed, uint8(seed), uint8(seed/3))
	}
	f.Fuzz(func(t *testing.T, seed int64, size, dev uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := randomWindowGraph(rng, 2+int(size%4))
		m, err := cost.NewModel(g, machine.GTX1080Ti([]int{2, 4, 8}[dev%3]), itspace.EnumPolicy{})
		if err != nil {
			t.Skip(err)
		}
		space := 1
		for v := range g.Len() {
			if space *= m.K(v); space > 100_000 {
				t.Skip("strategy space too large to enumerate")
			}
		}
		el, err := cost.Eliminate(context.Background(), m, nil)
		if err != nil {
			t.Fatal(err)
		}
		em := el.Model
		best, optima := optimaOf(m)
		emBest, emOptima := optimaOf(em)
		for _, idx := range optima {
			for v, c := range idx {
				if em.IndexOf(v, m.Configs(v)[c]) < 0 {
					t.Fatalf("optimum %v (cost %v) uses configuration %d of vertex %d, which was eliminated (ΣK %d → %d)", idx, best, c, v, el.KTotal, el.KAlive)
				}
			}
		}
		if math.Float64bits(emBest) != math.Float64bits(best) || len(emOptima) != len(optima) {
			t.Fatalf("eliminated model: least cost %v attained %d times, full model %v attained %d times", emBest, len(emOptima), best, len(optima))
		}
	})
}

// optimaOf enumerates every strategy of m and returns the least EvalIdx and
// each strategy attaining it.
func optimaOf(m *cost.Model) (float64, [][]int) {
	n := m.G.Len()
	idx := make([]int, n)
	best := math.Inf(1)
	var optima [][]int
	for {
		switch c := m.EvalIdx(idx); {
		case c < best:
			best, optima = c, [][]int{append([]int(nil), idx...)}
		case c == best:
			optima = append(optima, append([]int(nil), idx...))
		}
		k := n - 1
		for ; k >= 0; k-- {
			if idx[k]++; idx[k] < m.K(k) {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			return best, optima
		}
	}
}
