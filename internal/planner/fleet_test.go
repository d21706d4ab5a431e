package planner

import (
	"context"
	"testing"
	"time"

	"pase/internal/canon"
)

// TestFleetFallbackResultNeverCached: a request solved as a fleet fallback
// (locally, because the owning peer was unreachable) must answer correctly but
// leave no cache entry — when the fleet heals, the owner's LRU stays the
// cluster's single home for the fingerprint.
func TestFleetFallbackResultNeverCached(t *testing.T) {
	p := New(Config{})
	ctx := context.Background()

	prep, err := p.Prepare(alexReq(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.SolvePrepared(ctx, prep, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FleetFallback || res.Cached {
		t.Fatalf("fallback solve: FleetFallback=%v Cached=%v, want true/false", res.FleetFallback, res.Cached)
	}
	if st := p.Stats(); st.FleetFallbacks != 1 || st.Solves != 1 {
		t.Fatalf("stats %+v, want 1 fleet fallback, 1 solve", st)
	}

	// The same request without the marker must miss the cache and solve
	// again — the fallback left nothing behind.
	res2, err := p.SolvePrepared(ctx, prep, false)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached || res2.FleetFallback {
		t.Fatalf("post-fallback solve: Cached=%v FleetFallback=%v, want false/false", res2.Cached, res2.FleetFallback)
	}
	if res2.Cost != res.Cost {
		t.Fatalf("fallback cost %g != owned cost %g (solves are deterministic)", res.Cost, res2.Cost)
	}
	if st := p.Stats(); st.Solves != 2 {
		t.Fatalf("stats %+v, want the unmarked repeat to solve again", st)
	}

	// Normal caching resumes for the unmarked path.
	res3, err := p.SolvePrepared(ctx, prep, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.Cached {
		t.Fatal("third solve not cached: the unmarked solve must populate the LRU")
	}
	if st := p.Stats(); st.FleetFallbacks != 1 {
		t.Fatalf("stats %+v, want the fallback counter untouched by normal solves", st)
	}
}

// TestPrepareFingerprintMatchesSolve: the fingerprint Prepare takes before
// any solve — the fleet router's shard key and the daemon's memo entry — must
// be the key the prepared solve caches under and the one a fresh Solve of the
// same request hits, for every normalization path; otherwise owners disagree
// with their own cache keys and the cluster dedups nothing. Every method's
// prepared fingerprint is non-zero, and preparing counts nothing. A width-less beam is the DefaultBeamWidth beam, and a negative
// width fails to prepare.
func TestPrepareFingerprintMatchesSolve(t *testing.T) {
	p := New(Config{})
	ctx := context.Background()
	withOpts := func(r Request, method string, width int) Request {
		r.Opts.Method, r.Opts.BeamWidth = method, width
		return r
	}
	cases := []struct {
		name    string
		req     Request
		wantErr bool
		prep    *Prepared
	}{
		{name: "default dp", req: alexReq(8)},
		{name: "beam default width", req: withOpts(alexReq(8), "beam", 0)},
		{name: "beam explicit default width", req: withOpts(alexReq(8), "beam", 32)},
		{name: "beam explicit width", req: withOpts(rnnReq(8), "beam", 4)},
		{name: "beam negative width rejected", req: withOpts(alexReq(16), "beam", -1), wantErr: true},
		{name: "mcmc default options", req: withOpts(rnnReq(4), "mcmc", 0)},
		{name: "expert:cnn", req: withOpts(alexReq(8), "expert:cnn", 0)},
		{name: "dataparallel", req: withOpts(alexReq(4), "dataparallel", 0)},
	}
	for i := range cases {
		prep, err := p.Prepare(cases[i].req)
		if (err != nil) != cases[i].wantErr {
			t.Fatalf("%s: Prepare error %v, want error %v", cases[i].name, err, cases[i].wantErr)
		}
		cases[i].prep = prep
	}
	if st := p.Stats(); st != (Stats{}) {
		t.Fatalf("stats after Prepare only: %+v, want every counter zero", st)
	}
	if a, b := cases[1].prep.Fingerprint(), cases[2].prep.Fingerprint(); a != b {
		t.Fatalf("width-less beam fingerprints %s, BeamWidth 32 %s", a, b)
	}
	for _, c := range cases {
		if c.wantErr {
			continue
		}
		fp := c.prep.Fingerprint()
		if fp == (canon.Fingerprint{}) {
			t.Fatalf("%s: Prepare returned a zero fingerprint", c.name)
		}
		res, err := p.SolvePrepared(ctx, c.prep, false)
		if err != nil {
			t.Fatalf("%s: SolvePrepared: %v", c.name, err)
		}
		if got := fp.String(); got != res.Fingerprint {
			t.Fatalf("%s: prepared fingerprint %s != solve fingerprint %s", c.name, got, res.Fingerprint)
		}
		if hit, _ := p.Lookup(fp); hit == nil || hit.Cost != res.Cost {
			t.Fatalf("%s: Lookup(%s) = %v right after solving the fingerprint", c.name, fp, hit)
		}
		again, err := p.Solve(ctx, c.req)
		if err != nil || !again.Cached || again.Fingerprint != res.Fingerprint {
			t.Fatalf("%s: re-Solve = (%+v, %v), want a cache hit under %s", c.name, again, err, res.Fingerprint)
		}
	}
}

// TestLookupCountsHitAndPromotes: Lookup is the hit path of a front end that
// already holds the fingerprint. A miss counts nothing and reports an
// in-flight identical solve; a hit counts one ResultHits, marks the entry most
// recently used, and returns the cache's own entry — the same pointer until
// the entry is evicted.
func TestLookupCountsHitAndPromotes(t *testing.T) {
	p := New(Config{ResultCacheSize: 2, FaultPlan: mustFaultPlan(t, "solve:latency:100ms:1")})
	ctx := context.Background()
	preps := map[string]*Prepared{}
	fps := map[string]canon.Fingerprint{}
	for name, req := range map[string]Request{"A": alexReq(8), "B": rnnReq(8), "C": alexReq(4)} {
		prep, err := p.Prepare(req)
		if err != nil {
			t.Fatal(err)
		}
		preps[name], fps[name] = prep, prep.Fingerprint()
	}

	if res, inFlight := p.Lookup(fps["A"]); res != nil || inFlight {
		t.Fatalf("Lookup before any solve = (%v, %v), want a plain miss", res, inFlight)
	}
	// The injected latency holds A's flight open long enough to observe it.
	done := make(chan error, 1)
	go func() {
		_, err := p.SolvePrepared(ctx, preps["A"], false)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if res, inFlight := p.Lookup(fps["A"]); inFlight && res == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Lookup never reported the in-flight solve")
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.ResultHits != 0 || st.ResultMisses != 1 || st.DedupWaits != 0 {
		t.Fatalf("stats after misses %+v, want Lookup misses to count nothing", st)
	}
	if _, err := p.SolvePrepared(ctx, preps["B"], false); err != nil {
		t.Fatal(err)
	}

	// A is the older entry. Looking it up promotes it, so C evicts B.
	first, _ := p.Lookup(fps["A"])
	if first == nil || first.Cached || first.Fingerprint != fps["A"].String() {
		t.Fatalf("Lookup(A) = %+v, want the resident entry as the solve left it", first)
	}
	if st := p.Stats(); st.ResultHits != 1 {
		t.Fatalf("ResultHits = %d after one Lookup hit, want 1", st.ResultHits)
	}
	if _, err := p.SolvePrepared(ctx, preps["C"], false); err != nil {
		t.Fatal(err)
	}
	again, _ := p.Lookup(fps["A"])
	if again != first {
		t.Fatal("Lookup(A) returned a different entry although A was never evicted")
	}
	if res, _ := p.Lookup(fps["B"]); res != nil {
		t.Fatal("B survived: Lookup(A) did not mark A most recently used")
	}
	if st := p.Stats(); st.ResultHits != 2 || st.ResultEvictions != 1 {
		t.Fatalf("stats %+v, want 2 hits and 1 eviction", st)
	}
}
