package cost

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
)

// flatModel is a chain of n fully-connected layers, each feeding the next,
// at p=4, with every TL cell set to tl and every TX cell to 0, each table
// dense, so that each configuration has its own row and column.
func flatModel(t *testing.T, n int, tl float64) *Model {
	t.Helper()
	g := graph.New()
	for i := range n {
		g.AddNode(&graph.Node{
			Name:          "fc",
			Op:            graph.OpFC,
			Space:         itspace.Space{{Name: "b", Size: 8}, {Name: "n", Size: 8}, {Name: "c", Size: 8}},
			Output:        graph.TensorRef{Map: []int{0, 1}},
			Params:        []graph.TensorRef{{Map: []int{1, 2}, Param: true}},
			FlopsPerPoint: 2,
		})
		if i > 0 {
			g.Nodes[i].Inputs = append(g.Nodes[i].Inputs, graph.TensorRef{Map: []int{0, 2}})
			g.AddEdge(g.Nodes[i-1], g.Nodes[i])
		}
	}
	m, err := NewModel(g, machine.GTX1080Ti(4), itspace.EnumPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range m.tl {
		m.tl[v] = slices.Repeat([]float64{tl}, m.K(v))
	}
	for e, uv := range m.edges {
		ku, kv := m.K(uv[0]), m.K(uv[1])
		m.txc[e] = &edgeTables{q: make([]float64, ku*kv), nc: kv, ku: ku, kv: kv}
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
// rounding: both stay, since a DP entry over it may round to a tie. The
// margin of a vertex on this model is SumErrorBound over 3 terms (its two
// vertices and one edge), 2 for its edge and 2 for its TL row, at the summed
// largest TL and TX cells rounded up to a power of two: 9·2⁻⁵² at magnitude
// 1, twice that at 1.25.
func TestEliminateKeepsNearTie(t *testing.T) {
	for _, c := range []struct{ tl, tx, want float64 }{
		{0.5, 0, 9 * 0x1p-52},
		{0.5, 0.25, 18 * 0x1p-52},
	} {
		m := flatModel(t, 2, c.tl)
		for _, tab := range m.txc {
			for i := range tab.q {
				tab.q[i] = c.tx
			}
			tab.max = c.tx
		}
		if got := newDEE(m, nil).margin(0); got != c.want {
			t.Errorf("TL %v, TX %v: margin %v, want %v", c.tl, c.tx, got, c.want)
		}
	}
	m := flatModel(t, 2, 1)
	m.tl[0][0] = math.Nextafter(1, 2)
	if st := eliminate(t, m); st.KAlive != st.KTotal {
		t.Errorf("a 1-ulp near-tie lost configurations: ΣK %d → %d", st.KTotal, st.KAlive)
	}
	m.tl[0][0] = 2
	if st := eliminate(t, m); st.KAlive != st.KTotal-1 || st.Model.IndexOf(0, m.Configs(0)[0]) != -1 {
		t.Errorf("a configuration dearer by 1 everywhere: ΣK %d → %d, its index %d; want one fewer, and -1", st.KTotal, st.KAlive, st.Model.IndexOf(0, m.Configs(0)[0]))
	}
}

// Exact ties are kept: on a model whose every cost is 0 the margin is 0, and
// every strategy is an optimum.
func TestEliminateKeepsExactTies(t *testing.T) {
	if st := eliminate(t, flatModel(t, 2, 0)); st.KAlive != st.KTotal {
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
		m := flatModel(t, 2, 0)
		kv := m.K(1)
		for cu := range m.K(0) {
			for cv := range kv {
				x := tc.rest(cv)
				if cu == 0 {
					x = tc.first(cv)
				}
				m.txc[0].q[cu*kv+cv] = x
				m.txc[0].max = max(m.txc[0].max, x)
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
	m := flatModel(t, 2, 1)
	m.tl[0][0], m.tl[1][1] = 2, 2
	for c := range m.txc[0].q {
		m.txc[0].q[c] = float64(c)
	}
	m.txc[0].max = float64(m.K(0)*m.K(1) - 1)
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
			if !em.Configs(v)[i].Equal(m.Configs(v)[c]) || em.TLRow(v)[i] != m.TLRow(v)[c] {
				t.Errorf("vertex %d survivor %d: config %v TL %v, want configuration %d's", v, i, em.Configs(v)[i], em.TLRow(v)[i], c)
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

	// Two edges of one class, u→v and u′→v′ off a fork, restricted to
	// survivors {0,1}×{2,3} and {0}×{1,2,3}, whose concatenations agree,
	// hold different tables and so different class fingerprints.
	g := graph.New()
	nodes := make([]*graph.Node, 5)
	for i := range nodes {
		nodes[i] = fcNode(8, 8, 8)
		g.AddNode(nodes[i])
	}
	nodes[0].Inputs = nil
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 4}} {
		g.AddEdge(nodes[e[0]], nodes[e[1]])
	}
	m, err := NewModel(g, machine.GTX1080Ti(4), itspace.EnumPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	d = &dee{m: m, alive: [][]int32{{0}, {0, 1}, {0}, {2, 3}, {1, 2, 3}}, setOf: []int32{0, 1, 0, 2, 3}}
	if em := d.restrict(); m.EdgeClassFP(2) != m.EdgeClassFP(3) || em.EdgeClassFP(2) == em.EdgeClassFP(3) {
		t.Errorf("edges u→v and u′→v′: classes equal %v, restricted to {0,1}×{2,3} and {0}×{1,2,3} equal %v", m.EdgeClassFP(2) == m.EdgeClassFP(3), em.EdgeClassFP(2) == em.EdgeClassFP(3))
	}
}

// A cancelled context ends the run between vertex checks with its cause.
func TestEliminateCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Eliminate(ctx, flatModel(t, 2, 1), nil); !errors.Is(err, context.Canceled) {
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

	// A base over another term count serves no check, even where a check's
	// inputs recur at the same magnitude (4): vertex 0 of a two- and of a
	// three-layer chain reads the same tables, and its configuration 0,
	// 40·2⁻⁵² dearer, is past the two-layer margin (36·2⁻⁵²) and within the
	// three-layer one (44·2⁻⁵²).
	chain := func(n int) *Model {
		m := flatModel(t, n, 1)
		m.tl[0][0] += 40 * 0x1p-52
		return m
	}
	two := eliminate(t, chain(2))
	if two.KAlive != two.KTotal-1 {
		t.Fatalf("two layers: ΣK %d → %d, want one fewer", two.KTotal, two.KAlive)
	}
	m3 := chain(3)
	warm, err := Eliminate(ctx, m3, two)
	if err != nil {
		t.Fatal(err)
	}
	sameEliminatedModel(t, "three layers over a two-layer base", warm, eliminate(t, m3))
}

// What a run from scratch does on the paper models is pinned by equality,
// as cmd/paper's table1.golden pins the DP's States: the vertex checks it
// ran (every lookup misses on a first run unless two vertices' checks share
// their inputs) and the block cells they gathered. A moved count means the
// criterion, the worklist or the gather changed. cmd/bench records both
// (dee_checks, dee_cells). The survivors are pinned too, as ΣK after the
// run and an FNV-64a digest of K per vertex: the worklist's order moves the
// counts, never these.
func TestEliminationCountersPinned(t *testing.T) {
	for _, pin := range []struct {
		model      string
		p          int
		ran, cells int
		kAlive     int
		kDigest    uint64
	}{
		{"alexnet", 8, 21, 3194, 46, 0x5b1f9e6d25340d7},
		{"alexnet", 32, 22, 16317, 62, 0x2e7b5e4893f3d507},
		{"alexnet", 64, 24, 31325, 66, 0xc9496112207abfff},
		{"inceptionv3", 8, 231, 167911, 1051, 0xfed69a2037dbb018},
		{"inceptionv3", 32, 252, 1406770, 1915, 0x9b2d955544115206},
		{"inceptionv3", 64, 254, 3033372, 2351, 0x844010c0087829d4},
		{"rnnlm", 8, 6, 3012, 14, 0xa25b3551bd60e435},
		{"rnnlm", 32, 6, 30772, 19, 0x73bb1251a289fd22},
		{"rnnlm", 64, 10, 77752, 20, 0xe3b26f9af099eb93},
		{"transformer", 8, 41, 61567, 3642, 0x38e8a4176cfce60b},
		{"transformer", 32, 56, 280492, 5092, 0xa902ac5b0031cec5},
		{"transformer", 64, 69, 537462, 5704, 0x2c5833201a47dc8d},
	} {
		bm, err := models.ByName(pin.model)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(bm.Build(bm.Batch), machine.GTX1080Ti(pin.p), bm.Policy(pin.p))
		if err != nil {
			t.Fatal(err)
		}
		el := eliminate(t, m)
		if el.Ran != pin.ran || el.Cells != pin.cells {
			t.Errorf("%s p=%d: %d checks ran, %d cells gathered; pinned %d and %d", pin.model, pin.p, el.Ran, el.Cells, pin.ran, pin.cells)
		}
		h := fnv.New64a()
		for v := range el.Model.G.Len() {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(el.Model.K(v))))
		}
		if el.KAlive != pin.kAlive || h.Sum64() != pin.kDigest {
			t.Errorf("%s p=%d: ΣK %d after elimination, K per vertex digest %#x; pinned %d and %#x", pin.model, pin.p, el.KAlive, h.Sum64(), pin.kAlive, pin.kDigest)
		}
	}
}

// sameEliminatedModel fails unless a and b hold the same survivors, tables,
// class fingerprints and table sharing: the same edge-table pointer
// wherever the other shares one.
func sameEliminatedModel(t *testing.T, label string, a, b *Elimination) {
	t.Helper()
	if a.KTotal != b.KTotal || a.KAlive != b.KAlive {
		t.Fatalf("%s: ΣK %d → %d, want %d → %d", label, a.KTotal, a.KAlive, b.KTotal, b.KAlive)
	}
	am, bm := a.Model, b.Model
	for v := range am.G.Len() {
		if !slices.EqualFunc(am.Configs(v), bm.Configs(v), itspace.Config.Equal) || !slices.Equal(am.TLRow(v), bm.TLRow(v)) || am.VertexClassFP(v) != bm.VertexClassFP(v) {
			t.Fatalf("%s, vertex %d: %d survivors, want %d", label, v, am.K(v), bm.K(v))
		}
	}
	for e := range am.Edges() {
		at, _ := am.EdgeTable(e)
		bt, _ := bm.EdgeTable(e)
		if !slices.Equal(at, bt) || am.EdgeClassFP(e) != bm.EdgeClassFP(e) {
			t.Fatalf("%s, edge %d: tables or class fingerprints differ", label, e)
		}
		for f := range e {
			if (am.txc[e] == am.txc[f]) != (bm.txc[e] == bm.txc[f]) {
				t.Fatalf("%s: edges %d and %d share a table in one model only", label, f, e)
			}
		}
	}
}

// A model built from an earlier run's survivors is the model that run left,
// tables, fingerprints and sharing alike, with no check run, on a fresh
// build of the same model; it hands on prev's checks. Survivors whose
// vertex count or K per vertex does not fit the model run Eliminate.
func TestEliminateWithSurvivors(t *testing.T) {
	ctx := context.Background()
	build := func(name string, p int) *Model {
		bm, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(bm.Build(bm.Batch), machine.GTX1080Ti(p), bm.Policy(p))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, c := range []struct {
		name string
		p    int
	}{{"alexnet", 8}, {"inceptionv3", 32}, {"transformer", 32}, {"gptdeep:3", 16}} {
		base := eliminate(t, build(c.name, c.p))
		s := base.Survivors
		if s == nil {
			t.Fatalf("%s p=%d: no survivors", c.name, c.p)
		}
		got, err := EliminateWith(ctx, build(c.name, c.p), s, base)
		if err != nil {
			t.Fatal(err)
		}
		if got.Ran != 0 || got.Cells != 0 || got.Survivors != s || got.memo != base.memo {
			t.Errorf("%s p=%d: %d checks, %d cells from the survivors, survivors kept %v, checks handed on %v", c.name, c.p, got.Ran, got.Cells, got.Survivors == s, got.memo == base.memo)
		}
		sameEliminatedModel(t, c.name, got, base)
	}

	// Survivors of p=8 on the p=16 model (other Ks), the p=8 survivors with
	// one vertex added on the p=8 model (every K of its own vertices
	// matches), and none at all: each runs Eliminate.
	a8 := eliminate(t, build("alexnet", 8)).Survivors
	extra := *a8
	extra.ids = append(slices.Clone(a8.ids), a8.ids[0])
	for _, c := range []struct {
		label string
		m     *Model
		s     *Survivors
	}{
		{"other K", build("alexnet", 16), a8},
		{"other vertex count", build("alexnet", 8), &extra},
		{"no survivors", build("alexnet", 16), nil},
	} {
		got, err := EliminateWith(ctx, c.m, c.s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Ran == 0 {
			t.Errorf("%s: no check ran", c.label)
		}
		sameEliminatedModel(t, c.label, got, eliminate(t, c.m))
	}
}
