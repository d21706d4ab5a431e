package cost

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pase/internal/canon"
	"pase/internal/machine"
	"pase/internal/models"
)

// compareTables requires every cost table of two models built for the same
// (graph, machine, policy) to be byte-identical: config lists, TL rows, TX
// tables and transposes.
func compareTables(t *testing.T, m, o *Model) {
	t.Helper()
	for v := 0; v < m.G.Len(); v++ {
		ac, bc := m.Configs(v), o.Configs(v)
		if len(ac) != len(bc) {
			t.Fatalf("node %d: K %d vs oracle %d", v, len(ac), len(bc))
		}
		for i := range ac {
			if fmt.Sprint(ac[i]) != fmt.Sprint(bc[i]) {
				t.Fatalf("node %d config %d: %v vs oracle %v", v, i, ac[i], bc[i])
			}
		}
		a, b := m.TLRow(v), o.TLRow(v)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d: TL[%d] %v vs oracle %v", v, i, a[i], b[i])
			}
		}
	}
	for e := range m.Edges() {
		a, ka := m.EdgeTable(e)
		b, kb := o.EdgeTable(e)
		if ka != kb || len(a) != len(b) {
			t.Fatalf("edge %d: shape (%d, %d) vs oracle (%d, %d)", e, len(a), ka, len(b), kb)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("edge %d: TX[%d] %v vs oracle %v", e, i, a[i], b[i])
			}
		}
		at, kta := m.EdgeTableT(e)
		bt, ktb := o.EdgeTableT(e)
		if kta != ktb || len(at) != len(bt) {
			t.Fatalf("edge %d: transpose shape vs oracle", e)
		}
		for i := range at {
			if at[i] != bt[i] {
				t.Fatalf("edge %d: TXT[%d] %v vs oracle %v", e, i, at[i], bt[i])
			}
		}
	}
}

// Store-resolved builds must be byte-identical to the store-less build on
// every paper benchmark, whether the build populated the store (cold) or
// aliased it end to end (warm).
func TestClassStoreBuildsByteIdenticalToOracle(t *testing.T) {
	const p = 8
	for _, bm := range models.Benchmarks() {
		t.Run(bm.Name, func(t *testing.T) {
			// A fresh store per benchmark: the hit/miss assertions below count
			// this graph's classes only (a shared store would already hold
			// classes that recur across benchmarks).
			store := NewClassStore(0)
			g := bm.Build(bm.Batch)
			spec := machine.GTX1080Ti(p)
			pol := bm.Policy(p)
			oracle, err := NewModelWith(context.Background(), g, spec, pol, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := NewModelWith(context.Background(), g, spec, pol, BuildOptions{Store: store})
			if err != nil {
				t.Fatal(err)
			}
			afterCold := store.Stats()
			warm, err := NewModelWith(context.Background(), g, spec, pol, BuildOptions{Store: store})
			if err != nil {
				t.Fatal(err)
			}
			afterWarm := store.Stats()
			compareTables(t, cold, oracle)
			compareTables(t, warm, oracle)
			// One lookup per vertex class and per edge class: the cold build
			// misses every one, the warm build hits every one.
			classes := int64(cold.Info().VertexClasses + cold.Info().EdgeClasses)
			if afterCold.Hits != 0 || afterCold.Misses != classes {
				t.Errorf("cold build: %d hits, %d misses, want 0 and %d vertex + %d edge classes",
					afterCold.Hits, afterCold.Misses, cold.Info().VertexClasses, cold.Info().EdgeClasses)
			}
			if hits, misses := afterWarm.Hits-afterCold.Hits, afterWarm.Misses-afterCold.Misses; hits != classes || misses != 0 {
				t.Errorf("warm build: %d hits, %d misses, want %d and 0 (every class built once ever)", hits, misses, classes)
			}
			if afterCold.Bytes <= 0 || afterWarm.Bytes != afterCold.Bytes {
				t.Errorf("store holds %d bytes after the cold build and %d after the warm, want the same, > 0",
					afterCold.Bytes, afterWarm.Bytes)
			}
		})
	}
}

// A DisableInterning build computes no class fingerprints, so it must ignore
// the store entirely rather than key entries by meaningless identities.
func TestClassStoreIgnoredWithoutInterning(t *testing.T) {
	store := NewClassStore(0)
	bm, err := models.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	g := bm.Build(bm.Batch)
	_, err = NewModelWith(context.Background(), g, machine.GTX1080Ti(4), bm.Policy(4), BuildOptions{
		Store:            store,
		DisableInterning: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st != (ClassStoreStats{}) {
		t.Errorf("DisableInterning build touched the store (%+v), want untouched", st)
	}
}

// Sharing must hold across DISTINCT graphs: two transformer builds at
// different batch sizes share nothing (batch is in the iteration space), but
// two structurally overlapping graphs — here the same benchmark graph built
// twice as separate Graph values — resolve every class across models.
func TestClassStoreSharesAcrossDistinctGraphValues(t *testing.T) {
	store := NewClassStore(0)
	bm, err := models.ByName("rnnlm")
	if err != nil {
		t.Fatal(err)
	}
	spec := machine.GTX1080Ti(8)
	pol := bm.Policy(8)
	m1, err := NewModelWith(context.Background(), bm.Build(bm.Batch), spec, pol, BuildOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	before := store.Stats()
	m2, err := NewModelWith(context.Background(), bm.Build(bm.Batch), spec, pol, BuildOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	after := store.Stats()
	if misses := after.Misses - before.Misses; misses != 0 {
		t.Fatalf("second build of an identical graph value missed %d classes, want 0", misses)
	}
	if hits, want := after.Hits-before.Hits, int64(m2.Info().VertexClasses+m2.Info().EdgeClasses); hits != want {
		t.Fatalf("second build hit %d classes, want every one of its %d", hits, want)
	}
	// The hit tables must be the SAME backing arrays, not copies.
	for v := 0; v < m1.G.Len(); v++ {
		if a, b := m1.TLRow(v), m2.TLRow(v); &a[0] != &b[0] {
			t.Fatalf("node %d: TL rows of identical builds not aliased", v)
		}
	}
	for e := range m1.Edges() {
		a, _ := m1.EdgeTable(e)
		b, _ := m2.EdgeTable(e)
		at, _ := m1.EdgeTableT(e)
		bt, _ := m2.EdgeTableT(e)
		if &a[0] != &b[0] || &at[0] != &bt[0] {
			t.Fatalf("edge %d: TX tables of identical builds not aliased", e)
		}
	}
}

// A model build through a store whose budget is far below the model's class
// bytes must still be byte-identical to the oracle: the budget refuses
// inserts, and a refused class is built again by the next build.
func TestClassStoreTinyBudgetBuildStillExact(t *testing.T) {
	bm, err := models.ByName("rnnlm")
	if err != nil {
		t.Fatal(err)
	}
	g := bm.Build(bm.Batch)
	spec := machine.GTX1080Ti(4)
	pol := bm.Policy(4)
	oracle, err := NewModelWith(context.Background(), g, spec, pol, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 2 << 10
	store := NewClassStore(budget)
	for i := 0; i < 3; i++ {
		m, err := NewModelWith(context.Background(), g, spec, pol, BuildOptions{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		compareTables(t, m, oracle)
	}
	classes := int64(oracle.Info().VertexClasses + oracle.Info().EdgeClasses)
	if st := store.Stats(); st.Bytes > budget || st.Misses <= classes {
		t.Errorf("under a 2 KiB budget: %+v, want at most %d bytes and more than %d misses (refused classes rebuilt)",
			st, budget, classes)
	}
}

// Goroutines building overlapping registry models through one store, under
// -race the store's data-race check: every model is byte-identical to its
// store-less build, models sharing a class fingerprint alias one slice
// (a builder that lost a race to publish adopts the published tables), and
// the store counts exactly one hit or miss per class lookup.
func TestClassStoreConcurrentBuildsAlias(t *testing.T) {
	const p = 8
	spec := machine.GTX1080Ti(p)
	names := []string{"gptdeep:2", "gptdeep:3", "transformer", "gptdeep:3", "transformer", "gptdeep:2"}
	store := NewClassStore(0)
	ms := make([]*Model, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bm, err := models.ByName(name)
			if err != nil {
				errs[i] = err
				return
			}
			ms[i], errs[i] = NewModelWith(context.Background(), bm.Build(bm.Batch), spec, bm.Policy(p), BuildOptions{Store: store})
		}()
	}
	wg.Wait()
	var lookups int64
	tl := map[canon.Fingerprint]*float64{}
	tx := map[canon.Fingerprint]*float64{}
	for i, m := range ms {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		bm, _ := models.ByName(names[i])
		oracle, err := NewModelWith(context.Background(), bm.Build(bm.Batch), spec, bm.Policy(p), BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		compareTables(t, m, oracle)
		lookups += int64(m.Info().VertexClasses + m.Info().EdgeClasses)
		for v := 0; v < m.G.Len(); v++ {
			row := &m.TLRow(v)[0]
			if prev, ok := tl[m.VertexClassFP(v)]; ok && prev != row {
				t.Fatalf("%s node %d: TL row not aliased with an earlier model's of its class", names[i], v)
			}
			tl[m.VertexClassFP(v)] = row
		}
		for e := range m.Edges() {
			tab, _ := m.EdgeTable(e)
			if prev, ok := tx[m.EdgeClassFP(e)]; ok && prev != &tab[0] {
				t.Fatalf("%s edge %d: TX table not aliased with an earlier model's of its class", names[i], e)
			}
			tx[m.EdgeClassFP(e)] = &tab[0]
		}
	}
	if st := store.Stats(); st.Hits+st.Misses != lookups {
		t.Errorf("store counted %d hits + %d misses, want %d class lookups", st.Hits, st.Misses, lookups)
	}
}

// Two models aliasing one store's edge classes build each dense layout and
// transpose once: concurrent EdgeTable and EdgeTableT calls from both return
// one slice per edge and layout, cell for cell EdgeCost. Run under -race, it
// also checks that each build is ordered before every read.
func TestEdgeTableTSharedAcrossAliasingModels(t *testing.T) {
	store := NewClassStore(0)
	bm, err := models.ByName("rnnlm")
	if err != nil {
		t.Fatal(err)
	}
	spec := machine.GTX1080Ti(8)
	var ms [2]*Model
	for i := range ms {
		if ms[i], err = NewModelWith(context.Background(), bm.Build(bm.Batch), spec, bm.Policy(8), BuildOptions{Store: store}); err != nil {
			t.Fatal(err)
		}
	}
	if st, classes := store.Stats(), int64(ms[0].Info().VertexClasses+ms[0].Info().EdgeClasses); st.Misses != classes {
		t.Fatalf("%d misses over two identical builds of %d classes: the models alias nothing", st.Misses, classes)
	}
	ne := len(ms[0].Edges())
	// Reader w reads model w%2's dense layout (w/2 even) or transpose.
	const readers = 8
	read := func(w, e int) ([]float64, int) {
		if w/2%2 == 0 {
			return ms[w%2].EdgeTable(e)
		}
		return ms[w%2].EdgeTableT(e)
	}
	var got [readers][][]float64
	var wg sync.WaitGroup
	for w := range readers {
		got[w] = make([][]float64, ne)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ne {
				e := k
				if w%2 == 1 {
					e = ne - 1 - k
				}
				got[w][e], _ = read(w, e)
			}
		}()
	}
	wg.Wait()
	for e, uv := range ms[0].Edges() {
		tab, kv := ms[0].EdgeTable(e)
		tabT, ku := ms[0].EdgeTableT(e)
		for w := range readers {
			if want, _ := read(w, e); &got[w][e][0] != &want[0] {
				t.Fatalf("edge %d: reader %d got another slice", e, w)
			}
		}
		for cu := range ms[0].K(uv[0]) {
			for cv := range ms[0].K(uv[1]) {
				if c := ms[0].EdgeCost(e, cu, cv); tab[cu*kv+cv] != c || tabT[cv*ku+cu] != c {
					t.Fatalf("edge %d: cell (%d, %d) is %v dense and %v transposed, EdgeCost %v", e, cu, cv, tab[cu*kv+cv], tabT[cv*ku+cu], c)
				}
			}
		}
	}
}
