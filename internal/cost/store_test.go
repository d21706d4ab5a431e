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

// Store-resolved builds must be byte-identical to the store-less build — the
// planner's DisableClassStore oracle — on every paper benchmark, whether the
// build populated the store (cold) or aliased it end to end (warm).
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
			warm, err := NewModelWith(context.Background(), g, spec, pol, BuildOptions{Store: store})
			if err != nil {
				t.Fatal(err)
			}
			compareTables(t, cold, oracle)
			compareTables(t, warm, oracle)
			if cold.ClassStoreHits() != 0 {
				t.Errorf("cold build hit the store %d times, want 0", cold.ClassStoreHits())
			}
			// Two entry kinds and nothing else: one entry, and one miss, per
			// vertex class and per edge class.
			classes := cold.Info().VertexClasses + cold.Info().EdgeClasses
			if st := store.Stats(); st.Entries != classes || st.Misses != int64(classes) {
				t.Errorf("store holds %d entries after %d misses, want %d vertex + %d edge classes of each",
					st.Entries, st.Misses, cold.Info().VertexClasses, cold.Info().EdgeClasses)
			}
			if warm.ClassStoreMisses() != 0 {
				t.Errorf("warm build missed the store %d times, want 0 (every class built once ever)", warm.ClassStoreMisses())
			}
			if warm.ClassStoreHits() != cold.ClassStoreMisses() {
				t.Errorf("warm hits %d != cold misses %d: reference sets differ between identical builds",
					warm.ClassStoreHits(), cold.ClassStoreMisses())
			}
			if warm.ClassStoreBytes() <= 0 {
				t.Errorf("warm build aliased %d bytes, want > 0", warm.ClassStoreBytes())
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
	m, err := NewModelWith(context.Background(), g, machine.GTX1080Ti(4), bm.Policy(4), BuildOptions{
		Store:            store,
		DisableInterning: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.ClassStoreHits() != 0 || m.ClassStoreMisses() != 0 {
		t.Errorf("DisableInterning build touched the store (%d hits, %d misses), want untouched",
			m.ClassStoreHits(), m.ClassStoreMisses())
	}
	if st := store.Stats(); st.Entries != 0 {
		t.Errorf("store holds %d entries after a DisableInterning build, want 0", st.Entries)
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
	m2, err := NewModelWith(context.Background(), bm.Build(bm.Batch), spec, pol, BuildOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if m2.ClassStoreMisses() != 0 {
		t.Fatalf("second build of an identical graph value missed %d classes, want 0", m2.ClassStoreMisses())
	}
	if want := int64(m2.Info().VertexClasses + m2.Info().EdgeClasses); m2.ClassStoreHits() != want {
		t.Fatalf("second build hit %d classes, want every one of its %d", m2.ClassStoreHits(), want)
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

// Eviction must be deterministic: the same reference sequence against the
// same tiny budget produces the same hit/miss/eviction counts and the same
// surviving entries, run after run. Driven through getOrBuild directly so
// the sequence (unlike a parallel model build's publish order) is exactly
// reproducible.
func TestClassStoreEvictionDeterministic(t *testing.T) {
	fp := func(i int) canon.Fingerprint {
		w := canon.NewWriter()
		w.Label("test.class")
		w.Int(i)
		return w.Sum()
	}
	// 10 entries of 100 bytes against a 450-byte budget: a strict LRU keeps
	// the last four referenced, evicting in insertion order.
	run := func() (ClassStoreStats, []bool) {
		store := NewClassStore(450)
		seq := []int{0, 1, 2, 3, 4, 0, 5, 6, 7, 8, 9, 0}
		for _, i := range seq {
			if _, _, _, err := store.getOrBuild(fp(i), func() (any, int64, error) {
				return i, 100, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		resident := make([]bool, 10)
		store.mu.Lock()
		for i := range resident {
			_, resident[i] = store.cache.Get(fp(i))
		}
		store.mu.Unlock()
		return store.Stats(), resident
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 {
		t.Fatalf("eviction stats not deterministic:\n run 1: %+v\n run 2: %+v", s1, s2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("surviving entries differ between runs at class %d", i)
		}
	}
	if s1.Evictions == 0 {
		t.Fatalf("no evictions under a 450-byte budget: %+v", s1)
	}
	if s1.Bytes > 450 {
		t.Fatalf("store settled at %d bytes, budget 450", s1.Bytes)
	}
	// The LRU shape itself: the last four referenced classes (0 was
	// re-referenced last) survive.
	want := []bool{true, false, false, false, false, false, false, true, true, true}
	for i, w := range want {
		if r1[i] != w {
			t.Fatalf("class %d resident=%v, want %v (survivors %v)", i, r1[i], w, r1)
		}
	}
}

// A model build through a store whose budget is far below the model's class
// bytes must still be byte-identical to the oracle — eviction only forgets
// entries for future builds, never invalidates aliased tables.
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
	store := NewClassStore(2 << 10)
	for i := 0; i < 3; i++ {
		m, err := NewModelWith(context.Background(), g, spec, pol, BuildOptions{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		compareTables(t, m, oracle)
	}
	if st := store.Stats(); st.Evictions == 0 {
		t.Errorf("no evictions under a 2 KiB budget: %+v", st)
	}
}

// Concurrent builds needing the same classes must singleflight: with N
// goroutines racing the same model build through one store, every class is
// built exactly once and every build's tables are byte-identical to the
// store-less oracle. Run under -race this is also the store's data-race
// check.
func TestClassStoreConcurrentBuildsSingleflight(t *testing.T) {
	bm, err := models.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	g := bm.Build(bm.Batch)
	spec := machine.GTX1080Ti(8)
	pol := bm.Policy(8)
	oracle, err := NewModelWith(context.Background(), g, spec, pol, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store := NewClassStore(0)
	const n = 8
	ms := make([]*Model, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms[i], errs[i] = NewModelWith(context.Background(), g, spec, pol, BuildOptions{Store: store})
		}(i)
	}
	wg.Wait()
	var refs int64
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		compareTables(t, ms[i], oracle)
		refs += ms[i].ClassStoreHits() + ms[i].ClassStoreMisses()
	}
	st := store.Stats()
	if st.Hits+st.Misses != refs {
		t.Errorf("store counted %d references, builds report %d", st.Hits+st.Misses, refs)
	}
	// Exactly one build per distinct class across all N racers.
	if int(st.Misses) != st.Entries {
		t.Errorf("%d misses but %d entries: some class was built more than once", st.Misses, st.Entries)
	}
	if want := refs - st.Misses; st.Hits != want {
		t.Errorf("hits %d, want total references minus distinct classes = %d", st.Hits, want)
	}
}

// Two models aliasing one store's edge classes build each transpose once:
// concurrent EdgeTableT calls from both return one slice per edge, cell for
// cell EdgeCost. Run under -race, it also checks that the build is ordered
// before every read.
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
	if ms[1].ClassStoreMisses() != 0 {
		t.Fatalf("second build missed %d classes: the models alias nothing", ms[1].ClassStoreMisses())
	}
	ne := len(ms[0].Edges())
	const readers = 4
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
				got[w][e], _ = ms[w%2].EdgeTableT(e)
			}
		}()
	}
	wg.Wait()
	for e, uv := range ms[0].Edges() {
		vals, ku := ms[0].EdgeTableT(e)
		for w := range readers {
			if &got[w][e][0] != &vals[0] {
				t.Fatalf("edge %d: reader %d got another transpose", e, w)
			}
		}
		for cu := range ms[0].K(uv[0]) {
			for cv := range ms[0].K(uv[1]) {
				if vals[cv*ku+cu] != ms[0].EdgeCost(e, cu, cv) {
					t.Fatalf("edge %d: transpose cell (%d, %d) is %v, EdgeCost %v", e, cu, cv, vals[cv*ku+cu], ms[0].EdgeCost(e, cu, cv))
				}
			}
		}
	}
}
