package cost

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
)

// flatModel is two fully-connected layers, one feeding the other, at p=4,
// with every TL cell set to tl and every TX cell to 0, each configuration
// its own rep.
func flatModel(t *testing.T, tl float64) *Model {
	t.Helper()
	g := graph.New()
	for range 2 {
		g.AddNode(&graph.Node{
			Name:          "fc",
			Op:            graph.OpFC,
			Space:         itspace.Space{{Name: "b", Size: 8}, {Name: "n", Size: 8}, {Name: "c", Size: 8}},
			Output:        graph.TensorRef{Map: []int{0, 1}},
			Params:        []graph.TensorRef{{Map: []int{1, 2}, Param: true}},
			FlopsPerPoint: 2,
		})
	}
	g.Nodes[1].Inputs = append(g.Nodes[1].Inputs, graph.TensorRef{Map: []int{0, 2}})
	g.AddEdge(g.Nodes[0], g.Nodes[1])
	m, err := NewModel(g, machine.GTX1080Ti(4), itspace.EnumPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	iota := func(k int) []int32 {
		r := make([]int32, k)
		for i := range r {
			r[i] = int32(i)
		}
		return r
	}
	for v := range m.tl {
		m.tl[v] = slices.Repeat([]float64{tl}, m.K(v))
	}
	for e, uv := range m.edges {
		ku, kv := m.K(uv[0]), m.K(uv[1])
		m.tx[e], m.txT[e], m.txMax[e] = make([]float64, ku*kv), make([]float64, ku*kv), 0
		m.repU[e], m.repV[e] = iota(ku), iota(kv)
	}
	return m
}

func eliminate(t *testing.T, m *Model) *Elimination {
	t.Helper()
	st, err := Eliminate(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.KTotal < 4 {
		t.Fatalf("ΣK %d: want configurations to eliminate", st.KTotal)
	}
	return st
}

// A configuration one ulp dearer than the others is within the margin's
// rounding: both stay, since a DP entry over it may round to a tie.
func TestEliminateKeepsNearTie(t *testing.T) {
	m := flatModel(t, 1)
	m.tl[0][0] = math.Nextafter(1, 2)
	if st := eliminate(t, m); st.KAlive != st.KTotal {
		t.Errorf("a 1-ulp near-tie lost configurations: ΣK %d → %d", st.KTotal, st.KAlive)
	}
	m.tl[0][0] = 2
	if st := eliminate(t, m); st.KAlive != st.KTotal-1 {
		t.Errorf("a configuration dearer by 1 everywhere: ΣK %d → %d, want one fewer", st.KTotal, st.KAlive)
	}
}

// Exact ties are kept: on a model whose every cost is 0 the margin is 0, and
// every strategy is an optimum.
func TestEliminateKeepsExactTies(t *testing.T) {
	if st := eliminate(t, flatModel(t, 0)); st.KAlive != st.KTotal {
		t.Errorf("exact ties lost configurations: ΣK %d → %d", st.KTotal, st.KAlive)
	}
}

// A configuration whose criterion lands exactly on the margin stays: vertex
// 0's configuration 0 costs the margin more in TL than every other, and its
// edge row makes the rest of the criterion 0, once where Desmet's best-case
// bound decides (its row at least every other row's worst) and once where
// the row loop does (each bound above 0, the least difference 0).
func TestEliminateKeepsMarginTie(t *testing.T) {
	for _, tc := range []struct {
		name        string
		first, rest func(s int) float64
	}{
		{"desmet",
			func(s int) float64 { return float64(min(s, 1)) },
			func(int) float64 { return 0 }},
		{"row loop",
			func(s int) float64 { return []float64{1, 1, 5, 1}[min(s, 3)] },
			func(s int) float64 { return []float64{0, 1, 2, 0}[min(s, 3)] }},
	} {
		m := flatModel(t, 0)
		ku, kv := m.K(0), m.K(1)
		for cu := range ku {
			for cv := range kv {
				x := tc.rest(cv)
				if cu == 0 {
					x = tc.first(cv)
				}
				m.tx[0][cu*kv+cv], m.txT[0][cv*ku+cu] = x, x
				m.txMax[0] = max(m.txMax[0], x)
			}
		}
		// The margin grows with the TL cell that must equal it: iterate to
		// the fixed point.
		for range 8 {
			if mg := newDEE(m, nil).margin(0); m.tl[0][0] != mg {
				m.tl[0][0] = mg
			}
		}
		if mg := newDEE(m, nil).margin(0); m.tl[0][0] != mg || mg == 0 {
			t.Fatalf("%s: TL %v, margin %v", tc.name, m.tl[0][0], mg)
		}
		el, err := Eliminate(context.Background(), m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if el.Model.IndexOf(0, m.Configs(0)[0]) < 0 {
			t.Errorf("%s: a configuration exactly the margin dearer was eliminated", tc.name)
		}
	}
}

// The eliminated model holds the survivors' configurations and cells in index
// order, keeps the full model's Info, and moves the class fingerprint of a
// vertex that lost configurations.
func TestEliminatedModelRestrictsTables(t *testing.T) {
	m := flatModel(t, 1)
	m.tl[0][0], m.tl[1][1] = 2, 2
	for c := range m.tx[0] {
		m.tx[0][c] = float64(c)
	}
	ku, kv := m.K(0), m.K(1)
	for cu := range ku {
		for cv := range kv {
			m.txT[0][cv*ku+cu] = m.tx[0][cu*kv+cv]
		}
	}
	m.txMax[0] = float64(ku*kv - 1)
	d := newDEE(m, nil)
	if err := d.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	em := d.restrict()
	if em.Info() != m.Info() {
		t.Errorf("Info %+v, want the full model's %+v", em.Info(), m.Info())
	}
	for v := range 2 {
		a := d.alive[v]
		if len(a) == m.K(v) || em.K(v) != len(a) {
			t.Fatalf("vertex %d: %d of %d survive, eliminated K %d", v, len(a), m.K(v), em.K(v))
		}
		for i, c := range a {
			if !em.Configs(v)[i].Equal(m.Configs(v)[c]) || em.TL(v, i) != m.TL(v, int(c)) {
				t.Errorf("vertex %d survivor %d: config %v TL %v, want configuration %d's", v, i, em.Configs(v)[i], em.TL(v, i), c)
			}
		}
		if em.VertexClassFP(v) == m.VertexClassFP(v) {
			t.Errorf("vertex %d lost configurations but kept its class fingerprint", v)
		}
	}
	for i, cu := range d.alive[0] {
		for j, cv := range d.alive[1] {
			if em.EdgeCost(0, i, j) != m.EdgeCost(0, int(cu), int(cv)) {
				t.Fatalf("cell (%d,%d) is %v, want (%d,%d)'s %v", i, j, em.EdgeCost(0, i, j), cu, cv, m.EdgeCost(0, int(cu), int(cv)))
			}
		}
	}
}

// A cancelled context ends the run between vertex checks with its cause.
func TestEliminateCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Eliminate(ctx, flatModel(t, 1), nil); !errors.Is(err, context.Canceled) {
		t.Errorf("Eliminate under a cancelled context: %v, want context.Canceled", err)
	}
}

// An edited model eliminated with its base's result takes the base's checks
// wherever their inputs recur, and leaves what a run without the base leaves:
// the same survivors, tables and class fingerprints. The edit scales one
// Transformer node's FLOPs, as the sweep workload does, by factors that keep
// the margin's magnitude and one that moves it.
func TestEliminateReusesBaseChecks(t *testing.T) {
	bm, err := models.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	const p = 32
	build := func(factor float64) *Model {
		g := bm.Build(bm.Batch)
		for _, n := range g.Nodes {
			if n.Name == "enc0_self_wo" {
				n.FlopsPerPoint *= factor
			}
		}
		m, err := NewModel(g, machine.GTX1080Ti(p), bm.Policy(p))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ctx := context.Background()
	base, err := Eliminate(ctx, build(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, factor := range []float64{1 + 1.0/4096, 1.5, 64} {
		m := build(factor)
		cold, err := Eliminate(ctx, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Eliminate(ctx, m, base)
		if err != nil {
			t.Fatal(err)
		}
		wm, cm := warm.Model, cold.Model
		for v := range m.G.Len() {
			if !slices.EqualFunc(wm.Configs(v), cm.Configs(v), itspace.Config.Equal) || !slices.Equal(wm.TLRow(v), cm.TLRow(v)) || wm.VertexClassFP(v) != cm.VertexClassFP(v) {
				t.Fatalf("factor %v, vertex %d: %d survivors with the base's checks, %d without", factor, v, wm.K(v), cm.K(v))
			}
		}
		for e := range m.Edges() {
			wt, _ := wm.EdgeTable(e)
			ct, _ := cm.EdgeTable(e)
			if !slices.Equal(wt, ct) || wm.EdgeClassFP(e) != cm.EdgeClassFP(e) {
				t.Fatalf("factor %v, edge %d: tables or class fingerprints differ", factor, e)
			}
		}
		served := 0
		for k, out := range warm.memo.checks {
			if b, ok := base.memo.checks[k]; ok && len(out) > 0 && &b[0] == &out[0] {
				served++
			}
		}
		t.Logf("factor %v: %d of %d checks served, magnitude %v (base %v)", factor, served, len(warm.memo.checks), warm.memo.magnitude, base.memo.magnitude)
		if reuse := warm.memo.magnitude == base.memo.magnitude; reuse != (served > 0) {
			t.Errorf("factor %v: %d of %d checks served by the base (magnitude %v, base %v)", factor, served, len(warm.memo.checks), warm.memo.magnitude, base.memo.magnitude)
		}
	}
}
