package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pase"
)

func mustFaults(t *testing.T, spec string) *pase.FaultPlan {
	t.Helper()
	fp, err := pase.ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

// TestReadyzLifecycle: liveness stays 200 through the whole lifecycle while
// readiness flips 200 → 503 when a drain begins.
func TestReadyzLifecycle(t *testing.T) {
	s := newServer(pase.NewPlanner(pase.PlannerConfig{}), 64, 0)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	assertReadyz := func(wantStatus int, wantReason string) {
		t.Helper()
		status, out := getJSON(t, ts.URL+"/v1/readyz")
		ready, _ := out["ready"].(bool)
		reason, _ := out["reason"].(string)
		if status != wantStatus || ready != (wantStatus == http.StatusOK) || reason != wantReason {
			t.Fatalf("readyz = %d %v, want %d with reason %q", status, out, wantStatus, wantReason)
		}
		// The structured body always carries the peers array — empty on a
		// single-node daemon — so orchestrators parse one shape everywhere.
		if peers, ok := out["peers"].([]any); !ok || len(peers) != 0 {
			t.Fatalf("readyz peers = %v, want an empty array on a single-node daemon", out["peers"])
		}
		if hs, _ := getJSON(t, ts.URL+"/v1/healthz"); hs != http.StatusOK {
			t.Fatalf("healthz %d during %q, want it to stay 200 (liveness)", hs, wantReason)
		}
	}

	assertReadyz(http.StatusOK, "")
	s.draining.Store(true) // SIGTERM drain has begun
	assertReadyz(http.StatusServiceUnavailable, "draining")
}

// TestOverloadShedsWith429 is the acceptance flood: with -max-inflight 1 and
// -max-queue 2, excess distinct requests get 429 + Retry-After + code "shed"
// in bounded time, the stats counters record the sheds, and no goroutines
// leak once the flood subsides.
func TestOverloadShedsWith429(t *testing.T) {
	pl := pase.NewPlanner(pase.PlannerConfig{
		MaxInFlight: 1,
		MaxQueue:    2,
		FaultPlan:   mustFaults(t, "solve:latency:30s"),
	})
	ts := httptest.NewServer(newServer(pl, 64, 0).mux())
	defer ts.Close()

	baseline := runtime.NumGoroutine()

	// Distinct fingerprints (different gpus) so the flood exercises
	// admission instead of singleflight-joining one solve. The first three
	// occupy the slot and the queue; they run until their clients hang up.
	var wg sync.WaitGroup
	floodCtx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	for _, gpus := range []int{2, 4, 8} {
		wg.Add(1)
		go func(gpus int) {
			defer wg.Done()
			req, _ := http.NewRequestWithContext(floodCtx, http.MethodPost, ts.URL+"/v1/solve",
				strings.NewReader(fmt.Sprintf(`{"model":"alexnet","gpus":%d}`, gpus)))
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}(gpus)
	}
	// Wait until the daemon reports 1 in flight + 2 queued.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := pl.Stats()
		if st.InFlight == 1 && st.QueueDepth == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gate never saturated: %+v", pl.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// The fourth distinct request must shed fast.
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"model":"alexnet","gpus":16}`))
	if err != nil {
		t.Fatal(err)
	}
	shedLatency := time.Since(start)
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("flood overflow status %d, want 429 (%v)", resp.StatusCode, body)
	}
	if body["code"] != "shed" {
		t.Fatalf("code %v, want %q", body["code"], "shed")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	if shedLatency > 50*time.Millisecond {
		t.Fatalf("shed took %v, want < 50ms", shedLatency)
	}

	// Stats surface the shed and pressure gauges.
	_, stats := getJSON(t, ts.URL+"/v1/stats")
	plst := stats["planner"].(map[string]any)
	if plst["shed"] != float64(1) {
		t.Fatalf("stats shed = %v, want 1", plst["shed"])
	}
	if plst["queued"].(float64) < 2 {
		t.Fatalf("stats queued = %v, want >= 2", plst["queued"])
	}

	// Hang up the flood; the gate must drain and goroutines return to
	// baseline (no leaked waiters or solves).
	hangUp()
	wg.Wait()
	for {
		// Idle keep-alive connections hold client transport goroutines that
		// are not daemon leaks; drop them before counting.
		http.DefaultClient.CloseIdleConnections()
		st := pl.Stats()
		if st.InFlight == 0 && st.QueueDepth == 0 && runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak after flood: %d goroutines (baseline %d), gate %+v",
				runtime.NumGoroutine(), baseline, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDegradedBeamOverWire: an injected dp OOM comes back 200 with
// "degraded": true, reason "oom", and a usable strategy + gap, and the
// degraded counter shows in /v1/stats.
func TestDegradedBeamOverWire(t *testing.T) {
	pl := pase.NewPlanner(pase.PlannerConfig{
		DegradeBeamWidth: 8,
		FaultPlan:        mustFaults(t, "dp:oom:1"),
	})
	ts := httptest.NewServer(newServer(pl, 64, 0).mux())
	defer ts.Close()

	status, out := postJSON(t, ts.URL+"/v1/solve", `{"model":"alexnet","gpus":8}`)
	if status != http.StatusOK {
		t.Fatalf("degraded solve status %d: %v", status, out)
	}
	if out["degraded"] != true || out["degrade_reason"] != "oom" {
		t.Fatalf("degraded=%v reason=%v, want true/oom", out["degraded"], out["degrade_reason"])
	}
	if out["method"] != "dp" {
		t.Fatalf("method %v, want dp (the requested method, served degraded)", out["method"])
	}
	if bw, _ := out["beam_width"].(float64); bw != 8 {
		t.Fatalf("beam_width %v, want 8", out["beam_width"])
	}
	if gap, ok := out["gap"].(float64); !ok || gap < 0 {
		t.Fatalf("gap %v, want finite >= 0", out["gap"])
	}
	doc, ok := out["strategy"].(map[string]any)
	if !ok || doc["degraded"] != true {
		t.Fatalf("strategy document missing degraded marker: %v", doc)
	}
	if layers, ok := doc["layers"].([]any); !ok || len(layers) == 0 {
		t.Fatalf("degraded response has no usable strategy: %v", doc)
	}

	_, stats := getJSON(t, ts.URL+"/v1/stats")
	plst := stats["planner"].(map[string]any)
	if plst["degraded"] != float64(1) {
		t.Fatalf("stats degraded = %v, want 1", plst["degraded"])
	}
}

// TestTooEntangledOverWire: a dp request for DenseNet(128,12) at p=8, sent
// as an inline spec to a daemon with pased's default ladder, degrades with
// oom onto a beam that cannot index its dependent sets. That is a property
// of the request, so it is answered 422 "too_entangled", not 500 "internal".
func TestTooEntangledOverWire(t *testing.T) {
	doc, err := pase.ExportSpec("densenet", pase.DenseNet(128, 12), "1080ti", 8, pase.EnumPolicy{}, 128)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(pase.NewPlanner(pasedDefaults), 64, 0).mux())
	defer ts.Close()
	status, out := postJSON(t, ts.URL+"/v1/solve", specBody(string(raw)))
	if status != http.StatusUnprocessableEntity || out["code"] != "too_entangled" {
		t.Fatalf("status %d code %v, want 422 too_entangled: %v", status, out["code"], out)
	}
}

// TestPanicIsolationOverWire: an injected solver panic fails only its own
// request (500, code "panic"); the daemon keeps serving and counts it.
func TestPanicIsolationOverWire(t *testing.T) {
	pl := pase.NewPlanner(pase.PlannerConfig{FaultPlan: mustFaults(t, "solve:panic:1")})
	ts := httptest.NewServer(newServer(pl, 64, 0).mux())
	defer ts.Close()

	status, out := postJSON(t, ts.URL+"/v1/solve", `{"model":"alexnet","gpus":8}`)
	if status != http.StatusInternalServerError || out["code"] != "panic" {
		t.Fatalf("panicked solve: %d %v, want 500/panic", status, out)
	}
	status, out = postJSON(t, ts.URL+"/v1/solve", `{"model":"alexnet","gpus":8}`)
	if status != http.StatusOK {
		t.Fatalf("daemon did not survive the panic: %d %v", status, out)
	}
	_, stats := getJSON(t, ts.URL+"/v1/stats")
	if plst := stats["planner"].(map[string]any); plst["panics"] != float64(1) {
		t.Fatalf("stats panics = %v, want 1", plst["panics"])
	}
}

// TestWarmRestartOverWire is the kill-and-restart acceptance in miniature:
// daemon A solves, snapshots on shutdown; daemon B restores and serves the
// repeat request as a cache hit, visible in /v1/stats.
func TestWarmRestartOverWire(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "pased.snapshot")
	const req = `{"model":"alexnet","gpus":8}`

	plA := pase.NewPlanner(pase.PlannerConfig{})
	tsA := httptest.NewServer(newServer(plA, 64, 0).mux())
	status, first := postJSON(t, tsA.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("first solve: %d %v", status, first)
	}
	if err := plA.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	tsA.Close()

	plB := pase.NewPlanner(pase.PlannerConfig{})
	if nres, err := plB.LoadSnapshot(snap); err != nil || nres != 1 {
		t.Fatalf("restore: %d results, %v", nres, err)
	}
	tsB := httptest.NewServer(newServer(plB, 64, 0).mux())
	defer tsB.Close()

	status, second := postJSON(t, tsB.URL+"/v1/solve", req)
	if status != http.StatusOK || second["cached"] != true {
		t.Fatalf("post-restart solve not a cache hit: %d %v", status, second["cached"])
	}
	if first["fingerprint"] != second["fingerprint"] {
		t.Fatal("restored result has a different fingerprint")
	}
	a, _ := json.Marshal(first["strategy"])
	b, _ := json.Marshal(second["strategy"])
	if string(a) != string(b) {
		t.Fatal("restored strategy differs from the original")
	}
	_, stats := getJSON(t, tsB.URL+"/v1/stats")
	if plst := stats["planner"].(map[string]any); plst["restored_results"] != float64(1) {
		t.Fatalf("stats restored_results = %v, want 1", plst["restored_results"])
	}
}

// TestCheckpointFinalSaveIsLast: the checkpoint goroutine owns every save,
// with or without periodic ticks, and its save on stop is its last — the file
// holds the state at stop, never an older capture renamed over it.
func TestCheckpointFinalSaveIsLast(t *testing.T) {
	for _, every := range []time.Duration{0, time.Millisecond} {
		snap := filepath.Join(t.TempDir(), "pased.snapshot")
		pl := pase.NewPlanner(pase.PlannerConfig{})
		ts := httptest.NewServer(newServer(pl, 64, 0).mux())
		stop, done := make(chan struct{}), make(chan struct{})
		go checkpoint(pl, snap, every, stop, done)
		for _, req := range []string{`{"model":"alexnet","gpus":8}`, `{"model":"rnnlm","gpus":8}`} {
			if status, out := postJSON(t, ts.URL+"/v1/solve", req); status != http.StatusOK {
				t.Fatalf("every=%s: solve %s: %d %v", every, req, status, out)
			}
		}
		ts.Close()
		if _, err := os.Stat(snap); every == 0 && !os.IsNotExist(err) {
			t.Fatalf("every=0: a snapshot was written before stop (stat: %v)", err)
		}
		close(stop)
		<-done
		if n, err := pase.NewPlanner(pase.PlannerConfig{}).LoadSnapshot(snap); err != nil || n != 2 {
			t.Fatalf("every=%s: final snapshot restored %d results, %v; want 2", every, n, err)
		}
	}
}
