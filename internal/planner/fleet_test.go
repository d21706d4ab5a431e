package planner

import (
	"context"
	"testing"
	"time"

	"pase/internal/canon"
)

// TestFleetFallbackResultNeverCached: a request marked FleetFallback (solved
// locally because the owning peer was unreachable) must answer correctly but
// leave no cache entry — when the fleet heals, the owner's LRU stays the
// cluster's single home for the fingerprint.
func TestFleetFallbackResultNeverCached(t *testing.T) {
	p := New(Config{})
	ctx := context.Background()

	req := alexReq(8)
	req.FleetFallback = true
	res, err := p.Solve(ctx, req)
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
	res2, err := p.Solve(ctx, alexReq(8))
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
	res3, err := p.Solve(ctx, alexReq(8))
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

// TestSolveFingerprintMatchesSolve: the pre-solve fingerprint the fleet
// router hashes must equal the fingerprint Solve reports after the fact, for
// every normalization path — otherwise owners disagree with their own cache
// keys and the cluster dedups nothing.
func TestSolveFingerprintMatchesSolve(t *testing.T) {
	p := New(Config{DefaultBeamWidth: 8})
	ctx := context.Background()
	reqs := map[string]Request{
		"default dp": alexReq(8),
		"beam default width": func() Request {
			r := alexReq(8)
			r.Opts.Method = "beam"
			return r
		}(),
		"beam explicit width": func() Request {
			r := rnnReq(8)
			r.Opts.Method = "beam"
			r.Opts.BeamWidth = 4
			return r
		}(),
		"beam unbounded rewrites to dp": func() Request {
			r := alexReq(16)
			r.Opts.Method = "beam"
			r.Opts.BeamWidth = -1
			return r
		}(),
	}
	for name, req := range reqs {
		fp, err := p.SolveFingerprint(req)
		if err != nil {
			t.Fatalf("%s: SolveFingerprint: %v", name, err)
		}
		res, err := p.Solve(ctx, req)
		if err != nil {
			t.Fatalf("%s: Solve: %v", name, err)
		}
		if got := fp.String(); got != res.Fingerprint {
			t.Fatalf("%s: router fingerprint %s != solve fingerprint %s", name, got, res.Fingerprint)
		}
		if hit, _ := p.Lookup(fp); hit == nil || hit.Cost != res.Cost {
			t.Fatalf("%s: Lookup(%s) = %v right after solving the fingerprint", name, fp, hit)
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
	fps := map[string]canon.Fingerprint{}
	for name, req := range map[string]Request{"A": alexReq(8), "B": rnnReq(8), "C": alexReq(4)} {
		fp, err := p.SolveFingerprint(req)
		if err != nil {
			t.Fatal(err)
		}
		fps[name] = fp
	}

	if res, inFlight := p.Lookup(fps["A"]); res != nil || inFlight {
		t.Fatalf("Lookup before any solve = (%v, %v), want a plain miss", res, inFlight)
	}
	// The injected latency holds A's flight open long enough to observe it.
	done := make(chan error, 1)
	go func() {
		_, err := p.Solve(ctx, alexReq(8))
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
	if _, err := p.Solve(ctx, rnnReq(8)); err != nil {
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
	if _, err := p.Solve(ctx, alexReq(4)); err != nil {
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
