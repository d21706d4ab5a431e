package planner

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/machine"
	"pase/internal/mcmc"
	"pase/internal/models"
	"pase/internal/seq"
)

// directSolve runs the raw pipeline (no planner) as the oracle.
func directSolve(t *testing.T, req Request) *core.Result {
	t.Helper()
	m, err := cost.NewModel(req.G, req.Spec, req.Opts.Policy)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Solve(context.Background(), m, seq.Generate(m.G), core.Options{
		MaxTableEntries: req.Opts.MaxTableEntries,
		Workers:         req.Opts.Workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func alexReq(p int) Request {
	return Request{G: models.AlexNet(128), Spec: machine.GTX1080Ti(p)}
}

func rnnReq(p int) Request {
	return Request{G: models.RNNLM(64), Spec: machine.GTX1080Ti(p)}
}

func TestConcurrentRequestsMatchDirectFindWithOneSolvePerFingerprint(t *testing.T) {
	// The satellite acceptance: N goroutines issuing identical + distinct
	// requests must produce byte-identical strategies to the direct
	// pipeline, with exactly one underlying solve per unique fingerprint.
	uniques := []Request{alexReq(8), alexReq(16), rnnReq(8)}
	oracles := make([]*core.Result, len(uniques))
	for i, req := range uniques {
		oracles[i] = directSolve(t, req)
	}

	p := New(Config{})
	const perUnique = 8
	var wg sync.WaitGroup
	results := make([]*Result, len(uniques)*perUnique)
	errs := make([]error, len(results))
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Re-build the graph per goroutine: identical content from a
			// different construction must still dedup onto one solve.
			u := i % len(uniques)
			var req Request
			switch u {
			case 0:
				req = alexReq(8)
			case 1:
				req = alexReq(16)
			default:
				req = rnnReq(8)
			}
			results[i], errs[i] = p.Solve(context.Background(), req)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	leaders := make([]*Result, len(uniques))
	for i, res := range results {
		want := oracles[i%len(uniques)]
		if !reflect.DeepEqual(res.Strategy, want.Strategy) {
			t.Fatalf("request %d: strategy differs from direct solve", i)
		}
		if res.Cost != want.Cost {
			t.Fatalf("request %d: cost %v != direct %v", i, res.Cost, want.Cost)
		}
		if !res.Cached {
			leaders[i%len(uniques)] = res
		}
	}
	// Provenance is per solve: a follower (ride-along or hit) carries its
	// leader's.
	for i, res := range results {
		if lead := leaders[i%len(uniques)]; !reflect.DeepEqual(res.Provenance, lead.Provenance) {
			t.Fatalf("request %d: provenance %+v, want the leader's %+v", i, res.Provenance, lead.Provenance)
		}
	}

	st := p.Stats()
	if st.Solves != int64(len(uniques)) {
		t.Fatalf("Solves = %d, want exactly %d (one per unique fingerprint)", st.Solves, len(uniques))
	}
	if st.ModelBuilds != int64(len(uniques)) || st.SharedTableBytes <= 0 {
		t.Fatalf("ModelBuilds = %d, want %d; shared table bytes %d, want > 0", st.ModelBuilds, len(uniques), st.SharedTableBytes)
	}
	served := st.ResultHits + st.DedupWaits + st.ResultMisses
	if served != int64(len(results)) {
		t.Fatalf("hits(%d) + dedup(%d) + misses(%d) = %d, want %d requests",
			st.ResultHits, st.DedupWaits, st.ResultMisses, served, len(results))
	}
}

func TestCacheHitPerformsNoNewWork(t *testing.T) {
	p := New(Config{})
	first, err := p.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first solve reported Cached")
	}
	before := p.Stats()
	second, err := p.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatal(err)
	}
	after := p.Stats()
	if !second.Cached {
		t.Fatal("second identical request not served from cache")
	}
	if after.Solves != before.Solves || after.ModelBuilds != before.ModelBuilds {
		t.Fatalf("cache hit ran new work: solves %d→%d, builds %d→%d",
			before.Solves, after.Solves, before.ModelBuilds, after.ModelBuilds)
	}
	if after.ResultHits != before.ResultHits+1 {
		t.Fatalf("ResultHits %d→%d, want +1", before.ResultHits, after.ResultHits)
	}
	if !reflect.DeepEqual(first.Strategy, second.Strategy) || first.Cost != second.Cost {
		t.Fatal("cached result differs from original")
	}
	if first.Fingerprint == "" || first.Fingerprint != second.Fingerprint {
		t.Fatalf("fingerprints disagree: %q vs %q", first.Fingerprint, second.Fingerprint)
	}
	// Provenance is per solve: the hit serves the solve's.
	if !reflect.DeepEqual(second.Provenance, first.Provenance) {
		t.Fatalf("hit provenance %+v, want the solve's %+v", second.Provenance, first.Provenance)
	}
}

// Each span is stamped once, where it runs: Model around the model build
// (the fault plan's model site included), Elim around the dead-end
// elimination dp and beam run and mcmc does not, the kernel's stages by the
// kernel that ran, and Total around everything, so the solve site's latency
// shows in Total alone. A cache hit and a ride-along ran none of it: Total
// only.
func TestTimingsStampedWhereTheyRun(t *testing.T) {
	const lat = 20 * time.Millisecond
	p := New(Config{FaultPlan: mustFaultPlan(t, "model:latency:20ms,solve:latency:20ms")})
	all := func(s core.StageTimes) []time.Duration {
		return []time.Duration{s.Plan, s.Fill, s.Scan, s.Join, s.Keep, s.BackSub}
	}
	for _, tc := range []struct {
		method             string
		model              bool
		stamped, unstamped func(s core.StageTimes) []time.Duration
	}{
		{"dp", true,
			func(s core.StageTimes) []time.Duration { return []time.Duration{s.Plan, s.Fill, s.Scan, s.BackSub} },
			func(s core.StageTimes) []time.Duration { return []time.Duration{s.Join, s.Keep} }},
		{"beam", true,
			func(s core.StageTimes) []time.Duration { return []time.Duration{s.Plan, s.Join, s.Keep, s.BackSub} },
			func(s core.StageTimes) []time.Duration { return []time.Duration{s.Fill, s.Scan} }},
		{"mcmc", true, nil, all},
		{"dataparallel", false, nil, all},
	} {
		req := alexReq(8)
		req.Opts = Options{Method: tc.method, MCMC: mcmc.Options{MaxIters: 200}}
		res, err := p.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		tm := res.Timings
		if tc.model != (tm.Model >= lat) {
			t.Errorf("%s: Model = %v, want ≥ %v exactly when a model is built", tc.method, tm.Model, lat)
		}
		s := tm.StageTimes
		if eliminates := tc.method == "dp" || tc.method == "beam"; eliminates != (tm.Elim > 0) {
			t.Errorf("%s: Elim = %v, want > 0 exactly on dp and beam", tc.method, tm.Elim)
		}
		rest := tm.Total - tm.Model - tm.Elim
		for _, d := range all(s) {
			rest -= d
		}
		if rest < lat {
			t.Errorf("%s: Total − Model − stages = %v, want ≥ the solve site's %v (%+v)", tc.method, rest, lat, tm)
		}
		if tc.stamped != nil && slices.Min(tc.stamped(s)) <= 0 {
			t.Errorf("%s: stages %+v, want each the kernel runs stamped", tc.method, s)
		}
		for _, d := range tc.unstamped(s) {
			if d != 0 {
				t.Errorf("%s: stages %+v, want none the kernel lacks stamped", tc.method, s)
			}
		}
	}

	totalOnly := func(name string, res *Result) {
		t.Helper()
		if !res.Cached || res.Timings.Total <= 0 || res.Timings != (Timings{Total: res.Timings.Total}) {
			t.Errorf("%s: cached=%v timings %+v, want a cached answer carrying Total only", name, res.Cached, res.Timings)
		}
	}
	req := alexReq(8)
	req.Opts.Method = "beam"
	hit, err := p.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	totalOnly("hit", hit)

	// The fault plan holds the leader's flight open for at least 40ms: ride it.
	req = alexReq(4)
	prep, err := p.Prepare(req)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { _, err := p.Solve(context.Background(), req); done <- err }()
	for _, inFlight := p.Lookup(prep.Fingerprint()); !inFlight; _, inFlight = p.Lookup(prep.Fingerprint()) {
		time.Sleep(100 * time.Microsecond)
	}
	waits := p.Stats().DedupWaits
	rider, err := p.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p.Stats().DedupWaits != waits+1 {
		t.Fatal("second request did not ride the in-flight solve")
	}
	totalOnly("ride-along", rider)
}

func TestResultsAreIndependentCopies(t *testing.T) {
	p := New(Config{})
	a, err := p.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatal(err)
	}
	a.Strategy[0][0] = -99 // caller mutates their copy
	b, err := p.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatal(err)
	}
	if b.Strategy[0][0] == -99 {
		t.Fatal("cached strategy aliases a previously returned one")
	}
}

func TestLRUEvictionIsDeterministic(t *testing.T) {
	// Tiny budget: 2 results. Requests A, B, C have distinct fingerprints;
	// after C the least-recently-used result (A) must be the one evicted, so
	// A re-solves while B and C stay hits.
	p := New(Config{ResultCacheSize: 2})
	reqA, reqB, reqC := alexReq(8), alexReq(16), rnnReq(8)
	for _, r := range []Request{reqA, reqB, reqC} {
		if _, err := p.Solve(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Solves != 3 {
		t.Fatalf("Solves = %d, want 3", st.Solves)
	}
	if st.ResultEvictions != 1 {
		t.Fatalf("ResultEvictions = %d, want 1 (A evicted by C)", st.ResultEvictions)
	}
	if results := p.CacheSizes(); results != 2 {
		t.Fatalf("cached results = %d, want 2", results)
	}

	// B then C: hits, no new solves. Their recency order is now B < C.
	for _, r := range []Request{reqB, reqC} {
		res, err := p.Solve(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatal("expected cache hit")
		}
	}
	if st := p.Stats(); st.Solves != 3 {
		t.Fatalf("hits re-solved: Solves = %d", st.Solves)
	}
	// A was evicted: requesting it re-solves and evicts B (LRU), not C.
	if res, err := p.Solve(context.Background(), reqA); err != nil || res.Cached {
		t.Fatalf("A should re-solve (err=%v, cached=%v)", err, res.Cached)
	}
	if res, err := p.Solve(context.Background(), reqC); err != nil || !res.Cached {
		t.Fatalf("C should still be cached (err=%v)", err)
	}
	if res, err := p.Solve(context.Background(), reqB); err != nil || res.Cached {
		t.Fatalf("B should have been evicted by A (err=%v, cached=%v)", err, res.Cached)
	}
	if st := p.Stats(); st.Solves != 5 {
		t.Fatalf("Solves = %d, want 5 (3 cold + A and B re-solves)", st.Solves)
	}
}

func TestFingerprintNormalization(t *testing.T) {
	base := alexReq(8)

	// Workers is excluded: byte-identical results at any worker count.
	w1, w8 := base, base
	w1.Opts.Workers = 1
	w8.Opts.Workers = 8
	_, fpW1 := Fingerprints(w1)
	_, fpW8 := Fingerprints(w8)
	if fpW1 != fpW8 {
		t.Error("Workers changed the solve fingerprint")
	}

	// MaxTableEntries zero and the explicit default are the same request.
	explicit := base
	explicit.Opts.MaxTableEntries = core.DefaultMaxTableEntries
	_, a := Fingerprints(base)
	_, b := Fingerprints(explicit)
	if a != b {
		t.Error("default MaxTableEntries normalization failed")
	}

	// BreadthFirst and the memory budget are part of the solve identity but
	// not the model identity.
	bf := base
	bf.Opts.BreadthFirst = true
	mA, sA := Fingerprints(base)
	mB, sB := Fingerprints(bf)
	if mA != mB {
		t.Error("BreadthFirst changed the model fingerprint")
	}
	if sA == sB {
		t.Error("BreadthFirst did not change the solve fingerprint")
	}

	// Machine Name is cosmetic; numbers are not.
	named := base
	named.Spec.Name = "renamed"
	if _, b := Fingerprints(named); sA != b {
		t.Error("machine name changed the fingerprint")
	}
	faster := base
	faster.Spec.PeakFLOPS *= 2
	if _, b := Fingerprints(faster); sA == b {
		t.Error("machine FLOPS did not change the fingerprint")
	}
}
