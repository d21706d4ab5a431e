package planner

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"pase/internal/core"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/pressure"
)

func mustFaultPlan(t *testing.T, spec string) *pressure.FaultPlan {
	t.Helper()
	fp, err := pressure.ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// waitForGate polls the planner's gate gauges until cond holds.
func waitForGate(t *testing.T, p *Planner, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(p.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("gate never reached expected state: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadShedsImmediately is the acceptance flood in miniature: with one
// solve slot and a queue of two, a fourth distinct request is rejected with
// ErrShed in bounded time instead of blocking, and the shed counter records it.
func TestOverloadShedsImmediately(t *testing.T) {
	p := New(Config{
		MaxInFlight: 1,
		MaxQueue:    2,
		FaultPlan:   mustFaultPlan(t, "solve:latency:30s"),
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Distinct fingerprints throughout: identical requests would ride along
	// on the blocker's flight instead of exercising admission.
	blocked := []Request{alexReq(8), alexReq(16), rnnReq(8)}
	var wg sync.WaitGroup
	for _, req := range blocked {
		wg.Add(1)
		go func(req Request) {
			defer wg.Done()
			// These run (or queue) until the test cancels ctx; the injected
			// 30s latency keeps the slot occupied without real compute.
			if _, err := p.Solve(ctx, req); !errors.Is(err, context.Canceled) {
				t.Errorf("blocked request: want context.Canceled, got %v", err)
			}
		}(req)
	}
	waitForGate(t, p, func(st Stats) bool { return st.InFlight == 1 && st.QueueDepth == 2 })

	start := time.Now()
	_, err := p.Solve(context.Background(), rnnReq(16))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("want ErrShed from full queue, got %v", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("shed took %v, want < 50ms", d)
	}

	cancel()
	wg.Wait()
	st := p.Stats()
	if st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1 (stats: %+v)", st.Shed, st)
	}
	// The aborted flight hands its slot back from its own goroutine, which
	// may still be unwinding when its last waiter has already returned.
	waitForGate(t, p, func(st Stats) bool { return st.InFlight == 0 && st.QueueDepth == 0 })
}

// TestShedBypassedByCacheHit: admission only gates new underlying work — a
// cached result is served even when the gate is saturated.
func TestShedBypassedByCacheHit(t *testing.T) {
	p := New(Config{MaxInFlight: 1, MaxQueue: 1})
	warm, err := p.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatal(err)
	}
	// The warm flight hands its slot back from its own goroutine, which may
	// still be unwinding when Solve has already returned.
	waitForGate(t, p, func(st Stats) bool { return st.InFlight == 0 })

	// Saturate the slot and the queue with distinct never-finishing requests.
	p.cfg.FaultPlan = mustFaultPlan(t, "solve:latency:30s")
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, req := range []Request{alexReq(16), rnnReq(8)} {
		wg.Add(1)
		go func(req Request) {
			defer wg.Done()
			p.Solve(ctx, req)
		}(req)
	}
	waitForGate(t, p, func(st Stats) bool { return st.InFlight == 1 && st.QueueDepth == 1 })

	res, err := p.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatalf("cache hit under saturation: %v", err)
	}
	if !res.Cached || res.Cost != warm.Cost {
		t.Fatalf("want cached result (cost %v), got cached=%v cost=%v", warm.Cost, res.Cached, res.Cost)
	}

	// A request identical to the one holding the slot rides along on its
	// flight without touching the gate; a distinct request is still shed.
	var ride Request
	deadline := time.Now().Add(10 * time.Second)
	for ride.G == nil && time.Now().Before(deadline) {
		for _, req := range []Request{alexReq(16), rnnReq(8)} {
			prep, err := p.Prepare(req)
			if err != nil {
				t.Fatal(err)
			}
			if _, inFlight := p.Lookup(prep.Fingerprint()); inFlight {
				ride = req
			}
		}
		time.Sleep(time.Millisecond)
	}
	before := p.Stats()
	rideCtx, rideCancel := context.WithCancel(context.Background())
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Solve(rideCtx, ride)
	}()
	for p.Stats().DedupWaits != before.DedupWaits+1 {
		if time.Now().After(deadline) {
			t.Fatalf("identical request never rode along: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := p.Stats(); st.Shed != before.Shed || st.QueueDepth != before.QueueDepth {
		t.Fatalf("ride-along touched the gate: Shed %d → %d, QueueDepth %d → %d",
			before.Shed, st.Shed, before.QueueDepth, st.QueueDepth)
	}
	if _, err := p.Solve(context.Background(), rnnReq(16)); !errors.Is(err, ErrShed) {
		t.Fatalf("distinct request under saturation: want ErrShed, got %v", err)
	}
	rideCancel()
	cancel()
	wg.Wait()
}

// TestOOMDegradesToBeam: an injected ErrOOM on the exact DP path lands on the
// degradation ladder — a valid bounded-width beam result marked Degraded with
// a finite gap — and the degraded result is cached for repeats.
func TestOOMDegradesToBeam(t *testing.T) {
	const width = 4
	p := New(Config{
		DegradeBeamWidth: width,
		FaultPlan:        mustFaultPlan(t, "dp:oom:1"),
	})
	res, err := p.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatalf("degraded solve: %v", err)
	}
	if !res.Degraded || res.DegradeReason != DegradeReasonOOM {
		t.Fatalf("want OOM-degraded result, got degraded=%v reason=%q", res.Degraded, res.DegradeReason)
	}
	if res.Method != "dp" {
		t.Fatalf("degraded result keeps the requested method: got %q", res.Method)
	}
	if res.BeamWidth != width {
		t.Fatalf("BeamWidth = %d, want %d", res.BeamWidth, width)
	}
	if res.Gap < 0 || math.IsInf(res.Gap, 0) || math.IsNaN(res.Gap) {
		t.Fatalf("Gap = %v, want finite >= 0", res.Gap)
	}
	if len(res.Strategy) == 0 || res.Cost <= 0 {
		t.Fatalf("degraded result not a valid strategy: len=%d cost=%v", len(res.Strategy), res.Cost)
	}
	if st := p.Stats(); st.BeamSolves != 1 || st.LastGap != res.Gap {
		t.Fatalf("BeamSolves = %d, LastGap = %v, want 1 and %v", st.BeamSolves, st.LastGap, res.Gap)
	}

	// OOM-degradation is deterministic for the request, so the result is
	// cached: the repeat must not run a second solve.
	again, err := p.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || !again.Degraded || again.DegradeReason != DegradeReasonOOM {
		t.Fatalf("repeat: want cached degraded result, got cached=%v degraded=%v reason=%q",
			again.Cached, again.Degraded, again.DegradeReason)
	}
	st := p.Stats()
	if st.Degraded != 1 || st.Solves != 1 {
		t.Fatalf("Degraded = %d, Solves = %d, want 1 and 1", st.Degraded, st.Solves)
	}
}

// TestOOMWithoutDegradationStillErrors: the ladder is opt-in — with
// DegradeBeamWidth unset, an injected ErrOOM surfaces as before.
func TestOOMWithoutDegradationStillErrors(t *testing.T) {
	p := New(Config{FaultPlan: mustFaultPlan(t, "dp:oom:1")})
	if _, err := p.Solve(context.Background(), alexReq(8)); !errors.Is(err, core.ErrOOM) {
		t.Fatalf("want ErrOOM with degradation disabled, got %v", err)
	}
}

// A graph too entangled for the beam gets a typed refusal: a dp request for
// DenseNet(128,12) at p=8 exceeds the exact budget, degrades with oom, and the
// beam cannot index its dependent sets with one int64 — so does a beam
// request for it. Both end in core.ErrTooEntangled, which pased serves as a
// 422, not as an internal error.
func TestTooEntangledIsTyped(t *testing.T) {
	req := Request{G: models.DenseNet(128, 12), Spec: machine.GTX1080Ti(8)}
	if _, err := New(Config{}).Solve(context.Background(), req); !errors.Is(err, core.ErrOOM) {
		t.Fatalf("without the ladder: want core.ErrOOM, got %v", err)
	}
	p := New(Config{DegradeBeamWidth: 16})
	for _, method := range []string{"dp", "beam"} {
		req.Opts.Method = method
		if _, err := p.Solve(context.Background(), req); !errors.Is(err, core.ErrTooEntangled) {
			t.Errorf("%s: want core.ErrTooEntangled, got %v", method, err)
		}
	}
}

// TestPressureDegradationIsTransient: a request arriving to a deep queue is
// served by the degraded beam (reason "pressure") but the result is NOT
// cached — once pressure subsides the same request gets the exact solve.
func TestPressureDegradationIsTransient(t *testing.T) {
	// The depth is half the queue bound (the default one when unset), at least 1.
	if got, want := (Config{}).degradeQueueDepth(), pressure.DefaultMaxQueue/2; got != want || (Config{MaxQueue: 1}).degradeQueueDepth() != 1 {
		t.Fatalf("degrade depth %d unset (want %d), %d at MaxQueue 1 (want 1)", got, want, (Config{MaxQueue: 1}).degradeQueueDepth())
	}
	p := New(Config{
		MaxInFlight:      1,
		MaxQueue:         2, // degrade from half of it: one waiter
		DegradeBeamWidth: 4,
		FaultPlan:        mustFaultPlan(t, "solve:latency:400ms:1"),
	})
	// Blocker holds the only slot for ~400ms plus its real solve.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Solve(context.Background(), rnnReq(8)); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	waitForGate(t, p, func(st Stats) bool { return st.InFlight == 1 })

	res, err := p.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.DegradeReason != DegradeReasonPressure {
		t.Fatalf("want pressure-degraded result, got degraded=%v reason=%q", res.Degraded, res.DegradeReason)
	}
	wg.Wait()
	// A flight hands its slot back after its waiters have their answer.
	waitForGate(t, p, func(st Stats) bool { return st.InFlight == 0 })

	// Pressure has subsided; the repeat must miss the cache and run exact.
	again, err := p.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("pressure-degraded result leaked into the result cache")
	}
	if again.Degraded || !again.Exact {
		t.Fatalf("post-pressure repeat: want exact solve, got degraded=%v exact=%v", again.Degraded, again.Exact)
	}
	// The uncached pressure answer was still counted.
	if st := p.Stats(); st.Degraded != 1 || st.BeamSolves != 1 {
		t.Fatalf("Degraded = %d, BeamSolves = %d, want 1 and 1", st.Degraded, st.BeamSolves)
	}
}

// Pressure degrades only a dp request, and only with a degrade width: a
// beam request, or any request to a planner without the rung, arriving to
// the same deep queue is served as asked.
func TestPressureDegradesOnlyDPWithAWidth(t *testing.T) {
	for _, tc := range []struct {
		name   string
		width  int
		method string
	}{
		{"beam request", 4, "beam"},
		{"no degrade width", 0, "dp"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(Config{
				MaxInFlight:      1,
				MaxQueue:         2,
				DegradeBeamWidth: tc.width,
				FaultPlan:        mustFaultPlan(t, "solve:latency:200ms:1"),
			})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := p.Solve(context.Background(), rnnReq(8)); err != nil {
					t.Errorf("blocker: %v", err)
				}
			}()
			waitForGate(t, p, func(st Stats) bool { return st.InFlight == 1 })
			req := alexReq(8)
			req.Opts.Method = tc.method
			res, err := p.Solve(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if res.Degraded {
				t.Fatalf("degraded (%q) at queue depth 1 of 2", res.DegradeReason)
			}
			wg.Wait()
		})
	}
}

// Without MaxInFlight there is no gate: two distinct solves, each held
// 100ms, run at once and neither queues.
func TestNoGateWithoutMaxInFlight(t *testing.T) {
	p := New(Config{FaultPlan: mustFaultPlan(t, "solve:latency:100ms:2")})
	var wg sync.WaitGroup
	for _, req := range []Request{alexReq(8), rnnReq(8)} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Solve(context.Background(), req); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := p.Stats(); st.Queued != 0 {
		t.Fatalf("%d requests queued on a planner without MaxInFlight", st.Queued)
	}
}

// TestPanicIsolation: an injected panic fails only its own request with
// ErrSolvePanic; the planner counts it and keeps serving.
func TestPanicIsolation(t *testing.T) {
	p := New(Config{FaultPlan: mustFaultPlan(t, "solve:panic:1")})
	if _, err := p.Solve(context.Background(), alexReq(8)); !errors.Is(err, ErrSolvePanic) {
		t.Fatalf("want ErrSolvePanic, got %v", err)
	}
	if st := p.Stats(); st.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", st.Panics)
	}
	// The fault is exhausted: the same request now succeeds (the failed
	// flight must not have been cached).
	res, err := p.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatalf("solve after panic: %v", err)
	}
	if res.Cached || !res.Exact {
		t.Fatalf("post-panic solve: cached=%v exact=%v, want fresh exact", res.Cached, res.Exact)
	}
}

// TestModelBuildPanicIsolation: panic isolation also covers cost-model
// construction.
func TestModelBuildPanicIsolation(t *testing.T) {
	p := New(Config{FaultPlan: mustFaultPlan(t, "model:panic:1")})
	if _, err := p.Solve(context.Background(), alexReq(8)); !errors.Is(err, ErrSolvePanic) {
		t.Fatalf("want ErrSolvePanic from model build, got %v", err)
	}
	if st := p.Stats(); st.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", st.Panics)
	}
	res, err := p.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatalf("solve after model panic: %v", err)
	}
	if !res.Exact {
		t.Fatal("post-panic solve not exact")
	}
}
