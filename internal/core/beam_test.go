package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"pase/internal/canon"
	"pase/internal/cost"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/seq"
)

// beamFind runs SolveBeam with the default GENERATESEQ ordering.
func beamFind(m *cost.Model, opts BeamOptions) (*BeamResult, error) {
	return SolveBeam(context.Background(), m, seq.Generate(m.G), opts)
}

// The bracket against an independent oracle: on the adversarial generator the
// scan tests use, at every width, the reported cost must be realizable and
// the gap must bracket the brute-force optimum — Cost/(1+Gap) <= OPT <= Cost.
// A pass wide enough that no frontier can be cut (every table, times every
// configuration of the vertex being joined) must report Exact at the exact
// DP's cost with its strategy. Cost is also non-increasing in W on every
// graph here — not a theorem of beam search (a wider cut can evict a state a
// narrower one kept), so a violation means the cut order changed, not
// necessarily a bug — and the anytime loop's running best never rises.
func TestBeamGapSoundnessOnRandomGraphs(t *testing.T) {
	const relTol = 1e-9
	var bracketed, cutPasses int
	for trial := 0; trial < 160; trial++ {
		rng := rand.New(rand.NewSource(int64(8200 + trial)))
		n := 3 + rng.Intn(5)
		p := []int{2, 4, 8}[trial%3]
		m := adversarialModel(t, rng, n, p)
		strategies := 1
		for v := 0; v < n; v++ {
			strategies *= m.K(v)
		}
		if strategies > 20000 {
			continue
		}
		bf, err := BruteForce(m)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for _, width := range []int{1, 2, 8, 64} {
			label := fmt.Sprintf("trial %d width %d", trial, width)
			br, err := beamFind(m, BeamOptions{Width: width, GapTarget: -1})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if br.Cost < bf.Cost*(1-relTol) {
				t.Fatalf("%s: beam cost %v below the brute-force optimum %v", label, br.Cost, bf.Cost)
			}
			// An infinite cost (every retained strategy crosses a +Inf
			// entry) carries the capped gap, which brackets nothing.
			if lower := br.Cost / (1 + br.Gap); !math.IsInf(br.Cost, 1) && lower > bf.Cost*(1+relTol) {
				t.Fatalf("%s: gap %v claims optimum >= %v, but brute force found %v", label, br.Gap, lower, bf.Cost)
			}
			if br.Exact && br.Cost != bf.Cost && math.Abs(br.Cost-bf.Cost) > relTol*bf.Cost {
				t.Fatalf("%s: flagged exact but cost %v != %v", label, br.Cost, bf.Cost)
			}
			if got := m.EvalIdx(br.Idx); got != br.Cost && math.Abs(got-br.Cost) > relTol*math.Abs(got) {
				t.Fatalf("%s: reported cost %v, strategy evaluates to %v", label, br.Cost, got)
			}
			if err := br.Strategy.Validate(m.G, p); err != nil {
				t.Fatalf("%s: invalid strategy: %v", label, err)
			}
			if !br.Exact {
				cutPasses++
			}
			if br.Cost > best {
				t.Fatalf("%s: cost %v above a narrower pass's %v", label, br.Cost, best)
			}
			best = br.Cost
		}
		bracketed++

		// The anytime loop from W=1: the running best never rises and ends
		// proven optimal.
		var costs []float64
		br, err := beamFind(m, BeamOptions{Width: 1, GapTarget: 1e-12,
			OnPass: func(_, _ int, c, _ float64) { costs = append(costs, c) }})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !slices.IsSortedFunc(costs, func(a, b float64) int { return cmp.Compare(b, a) }) {
			t.Fatalf("trial %d: refinement costs rose: %v", trial, costs)
		}
		if !br.Exact && br.Gap > 1e-12 || br.Cost != bf.Cost && math.Abs(br.Cost-bf.Cost) > relTol*bf.Cost {
			t.Fatalf("trial %d: refined to cost %v exact=%v gap=%v; brute force %v", trial, br.Cost, br.Exact, br.Gap, bf.Cost)
		}

		// Wide enough to cut nothing: exact, and the exact DP's strategy.
		exact, err := FindBestStrategy(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wide, err := beamFind(m, BeamOptions{Width: int(exact.Stats.MaxTable) * exact.Stats.KEffective, GapTarget: -1})
		if err != nil {
			t.Fatal(err)
		}
		// (The two sum in different orders, so the costs may differ in the
		// last place.)
		if !wide.Exact || wide.Gap != 0 || math.Abs(wide.Cost-exact.Cost) > relTol*exact.Cost || !slices.Equal(wide.Idx, exact.Idx) {
			t.Fatalf("trial %d: uncut pass exact=%v gap=%v cost=%v idx=%v; exact DP cost=%v idx=%v",
				trial, wide.Exact, wide.Gap, wide.Cost, wide.Idx, exact.Cost, exact.Idx)
		}
	}
	t.Logf("%d of 160 trials brute-forced, %d of their passes cut", bracketed, cutPasses)
	if bracketed < 80 || cutPasses == 0 {
		t.Errorf("%d of 160 trials were small enough to brute-force, %d passes were cut — want >= 80 and > 0", bracketed, cutPasses)
	}
}

// The anytime loop must refine monotonically: each OnPass reports the
// running best, so the reported costs never increase, and on a graph small
// enough to stop truncating the loop must terminate exact at the optimum.
func TestBeamAnytimeRefinementMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomDNNGraph(rng, 10)
	m := newModel(t, g, 8)
	exact, err := FindBestStrategy(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var costs []float64
	br, err := beamFind(m, BeamOptions{
		Width:     1,
		GapTarget: 1e-12, // unreachably tight: refine until the pass is exact
		OnPass:    func(_, _ int, cost, _ float64) { costs = append(costs, cost) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) < 2 {
		t.Fatalf("expected several refinement passes from width 1, got %d", len(costs))
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] > costs[i-1] {
			t.Fatalf("pass %d regressed: %v -> %v (all: %v)", i+1, costs[i-1], costs[i], costs)
		}
	}
	if !br.Exact {
		t.Fatalf("refinement on a small graph should reach exactness, gap=%v after %d passes", br.Gap, br.Passes)
	}
	if br.Cost != exact.Cost {
		t.Fatalf("refined-to-exact cost %v != exact %v", br.Cost, exact.Cost)
	}
}

// gptDeepModel builds (once) the GPT-scale decoder model whose exact DP
// tables exceed DefaultMaxTableEntries: 3 layers of shared-memory decoder at
// p=64 under the unrestricted policy.
var gptDeepModel = sync.OnceValues(func() (*cost.Model, error) {
	bm, err := models.ByName("gptdeep:3")
	if err != nil {
		return nil, err
	}
	g := bm.Build(bm.Batch)
	return cost.NewModel(g, machine.GTX1080Ti(64), itspace.EnumPolicy{})
})

// The acceptance bar of the beam solver: a graph the exact DP cannot finish
// under the default table budget gets a valid strategy with a sound,
// reported gap from a single bounded-width pass, in seconds. Every gap target
// <= 0 means that one pass, whatever deadline the context carries.
func TestBeamSolvesWhereExactDPOOMs(t *testing.T) {
	m, err := gptDeepModel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FindBestStrategy(m, Options{}); !errors.Is(err, ErrOOM) {
		t.Fatalf("exact DP on gptdeep:3 should exhaust DefaultMaxTableEntries, got err=%v", err)
	}
	for _, target := range []float64{0, -1} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		br, err := SolveBeam(ctx, m, seq.Generate(m.G), BeamOptions{Width: 32, GapTarget: target})
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			t.Fatalf("GapTarget %v: %v", target, err)
		}
		if br.Passes != 1 || elapsed > 5*time.Second {
			t.Fatalf("GapTarget %v: %d passes in %v, want one pass in < 5s", target, br.Passes, elapsed)
		}
		if br.Exact {
			t.Fatal("bounded beam on gptdeep:3 cannot prove exactness (the exact DP OOMs)")
		}
		if !(br.Gap > 0) || math.IsInf(br.Gap, 0) || math.IsNaN(br.Gap) {
			t.Fatalf("want a finite positive gap, got %v", br.Gap)
		}
		if err := br.Strategy.Validate(m.G, 64); err != nil {
			t.Fatalf("invalid strategy: %v", err)
		}
		// The stored cost must be realizable by the returned strategy.
		got, err := m.Eval(br.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-br.Cost) > 1e-6*math.Abs(br.Cost) {
			t.Fatalf("reported cost %v not realized by strategy (eval %v)", br.Cost, got)
		}
	}
}

// Cancelling mid-refinement is an error like any other: the pass in flight
// stops within the fill loop's polling latency of the cancel, and SolveBeam
// returns context.Canceled, not the earlier pass's strategy.
func TestBeamCancellationIsAnError(t *testing.T) {
	m, err := gptDeepModel()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelled time.Time
	var once sync.Once
	br, err := SolveBeam(ctx, m, seq.Generate(m.G), BeamOptions{
		Width:     8,
		GapTarget: 1e-12, // keep refining so the cancel lands mid-pass
		OnPass: func(pass, _ int, _, _ float64) {
			if pass == 1 {
				// Cancel shortly after pass 2 starts filling.
				go func() {
					time.Sleep(50 * time.Millisecond)
					once.Do(func() { cancelled = time.Now() })
					cancel()
				}()
			}
		},
	})
	if !errors.Is(err, context.Canceled) || br != nil {
		t.Fatalf("cancellation mid-refinement: (%+v, %v), want context.Canceled", br, err)
	}
	if lag := time.Since(cancelled); lag > 100*time.Millisecond {
		t.Fatalf("returned %v after cancel, want < 100ms", lag)
	}
}

// The beam must respect the table budget like the exact solver: an
// impossible budget yields ErrOOM on the first pass (no best-so-far to fall
// back to). A width that is not positive is an error too, not an exact
// solve: the unbounded beam is Solve's job. Under the least budget a W=1
// pass fits in, refinement's W=2 pass runs out of it, and the W=1 pass's
// result is the answer.
func TestBeamRespectsMemoryBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomDNNGraph(rng, 10)
	m := newModel(t, g, 8)
	for _, c := range []struct {
		opts    BeamOptions
		wantOOM bool
	}{
		{BeamOptions{Options: Options{MaxTableEntries: 4}, Width: 16}, true},
		{BeamOptions{Width: 0}, false},
		{BeamOptions{Width: -1}, false},
	} {
		br, err := beamFind(m, c.opts)
		if err == nil || errors.Is(err, ErrOOM) != c.wantOOM {
			t.Fatalf("budget %d width %d: (%v, %v), want an error (ErrOOM: %v)",
				c.opts.MaxTableEntries, c.opts.Width, br, err, c.wantOOM)
		}
	}

	single := func(budget int64, width int) (*BeamResult, error) {
		return beamFind(m, BeamOptions{Options: Options{MaxTableEntries: budget}, Width: width, GapTarget: -1})
	}
	// (A zero budget means the default one, so the search starts at 1.)
	budget := 1 + int64(sort.Search(1<<20, func(b int) bool { _, err := single(1+int64(b), 1); return err == nil }))
	first, err := single(budget, 1)
	if err != nil || first.Exact {
		t.Fatalf("W=1 under its least budget %d: (%+v, %v), want a cut pass", budget, first, err)
	}
	if _, err := single(budget, 2); !errors.Is(err, ErrOOM) {
		t.Fatalf("W=2 under budget %d: %v, want ErrOOM", budget, err)
	}
	br, err := beamFind(m, BeamOptions{Options: Options{MaxTableEntries: budget}, Width: 1, GapTarget: 1e-12})
	if err != nil || br.Passes != 1 || br.Width != 1 || br.Cost != first.Cost {
		t.Fatalf("refinement under budget %d: (%+v, %v), want the W=1 pass's cost %v", budget, br, err, first.Cost)
	}
}

// An exact oracle for the deep stack. Stored as quotients the DP tables of
// gptdeep:12 at p=32 — the benchmark's beam graph — fit in tens of megabytes,
// so with the nominal budget lifted (under the default one it still ends in
// ErrOOM and is served by the beam) the exact DP gives the optimum the beam
// only brackets: lower bound ≤ optimum ≤ beam cost at W=8 and W=32. The pinned
// optima say how loose each side is (gptdeep:12: the W=32 beam costs 1.42x the
// optimum, and the bound is 2.40x below it).
func TestExactOptimumBracketsTheBeamOnDeepGPT(t *testing.T) {
	if testing.Short() {
		t.Skip("solves gptdeep:12 exactly")
	}
	for _, tc := range []struct {
		name    string
		optimum float64
		fits    bool // under the default budget
	}{
		{"gptdeep:6", 0.0383592486, true},
		{"gptdeep:12", 0.0706103327, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := paperModel(t, tc.name, 32)
			sq := seq.Generate(m.G)
			if _, err := Solve(context.Background(), m, sq, Options{Workers: 1}); errors.Is(err, ErrOOM) == tc.fits {
				t.Fatalf("under the default budget: %v, fits %v", err, tc.fits)
			}
			exact, err := Solve(context.Background(), m, sq, Options{MaxTableEntries: 1 << 30, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(exact.Cost/tc.optimum-1) > 1e-9 {
				t.Fatalf("optimum %.10g, pinned %.10g", exact.Cost, tc.optimum)
			}
			for _, width := range []int{8, 32} {
				br, err := SolveBeam(context.Background(), m, sq, BeamOptions{Options: Options{Workers: 1}, Width: width, GapTarget: -1})
				if err != nil {
					t.Fatal(err)
				}
				bound := br.Cost / (1 + br.Gap)
				if !(bound <= exact.Cost && exact.Cost <= br.Cost) {
					t.Fatalf("W=%d: lower bound %.10g, optimum %.10g, beam cost %.10g do not nest", width, bound, exact.Cost, br.Cost)
				}
				t.Logf("W=%d: beam %.10g is %.3fx the optimum %.10g, which is %.3fx the bound %.10g",
					width, br.Cost, br.Cost/exact.Cost, exact.Cost, exact.Cost/bound, bound)
			}
		})
	}
}

// A beam pass allocates its scratch itself, so what one pass allocates does
// not depend on whether a collection ran before it: one W=32 pass on
// gptdeep:12 at p=32 — the benchmark's beam graph — right after two forced
// collections allocates the same bytes, within 16, as a warm pass. The
// runtime itself allocates a few kilobytes now and then (under -race more
// often), so each side is the least of eight passes, as in
// TestFillAllocationIndependentOfGC.
func TestBeamPassAllocationIndependentOfGC(t *testing.T) {
	m := paperModel(t, "gptdeep:12", 32)
	sq := seq.Generate(m.G)
	opts := BeamOptions{Options: Options{Workers: 1}, Width: 32, GapTarget: -1}
	least := func(collect bool) uint64 {
		t.Helper()
		lo := uint64(math.MaxUint64)
		for range 8 {
			if collect {
				runtime.GC()
				runtime.GC()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := SolveBeam(context.Background(), m, sq, opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			lo = min(lo, after.TotalAlloc-before.TotalAlloc)
		}
		return lo
	}
	least(false) // whatever a first call over the model sets up
	afterGC, warm := least(true), least(false)
	if d := int64(afterGC) - int64(warm); d < -16 || d > 16 {
		t.Fatalf("a pass after two collections allocated %d B, a warm pass %d B: %d B apart, want ≤ 16", afterGC, warm, d)
	}
	t.Logf("after two collections %d B, warm %d B", afterGC, warm)
}

// beamPin is one pinned beam pass: the candidates it evaluated, the bits of
// its cost and gap, and a digest of its strategy (beamStrategyDigest).
type beamPin struct {
	states            int64
	costBits, gapBits uint64
	strategy          string
}

// beamPins holds, per KernelVersion, one column: the gptdeep:12 p=32 passes at
// W=8 and W=32, the benchmark's beam graph, where the exact DP runs out of
// the default budget. beamSeals seals each column by a digest of its pins.
// Numerics that move take a new KernelVersion and a new column beside the
// old ones, which are never edited. A count that falls with the numerics
// unchanged is re-pinned in place, seal and all, and CHANGES.md says so.
var (
	beamPins = map[string][2]beamPin{
		"core.kernel/v2": {
			{1395104, 0x3fb9c0b49ada1900, 0x40034ee1964f2780, "7f352573103dc794"},
			{2718119, 0x3fb9c0b49ada1900, 0x40034ee1964f2780, "7f352573103dc794"},
		},
	}
	beamSeals = map[string]string{
		"core.kernel/v2": "da3f1eb41fbe4c37",
	}
)

var beamPinWidths = [2]int{8, 32}

func beamStrategyDigest(idx []int) string {
	w := canon.NewWriter()
	w.Label("core.test.beam-strategy")
	w.Ints(idx)
	return w.Sum().String()[:16]
}

func beamColumnDigest(version string, col [2]beamPin) string {
	w := canon.NewWriter()
	w.Label("core.test.beam-pins")
	w.Str(version)
	for _, pin := range col {
		w.I64(pin.states)
		w.U64(pin.costBits)
		w.U64(pin.gapBits)
		w.Str(pin.strategy)
	}
	return w.Sum().String()[:16]
}

// The beam's answer and work on its benchmark graph, by equality: one pass
// at each width must evaluate exactly the pinned States and return exactly
// the pinned cost, gap and strategy of the current KernelVersion's column.
func TestBeamPassesPinned(t *testing.T) {
	for version, col := range beamPins {
		if got := beamColumnDigest(version, col); got != beamSeals[version] {
			t.Errorf("the %s beam column digests to %s, sealed as %q: numerics that move take a new KernelVersion and a new column", version, got, beamSeals[version])
		}
	}
	col, ok := beamPins[KernelVersion]
	if !ok {
		t.Fatalf("no beam passes are pinned under KernelVersion %q: add its column and seal it in beamSeals", KernelVersion)
	}
	m := paperModel(t, "gptdeep:12", 32)
	sq := seq.Generate(m.G)
	for j, width := range beamPinWidths {
		br, err := SolveBeam(context.Background(), m, sq, BeamOptions{Width: width, GapTarget: -1})
		if err != nil {
			t.Fatal(err)
		}
		got := beamPin{br.Stats.States, math.Float64bits(br.Cost), math.Float64bits(br.Gap), beamStrategyDigest(br.Idx)}
		if got != col[j] {
			t.Errorf("W=%d: states %d, cost %#x (%v), gap %#x (%v), strategy %s; pinned %+v",
				width, got.states, got.costBits, br.Cost, got.gapBits, br.Gap, got.strategy, col[j])
		}
	}
}
