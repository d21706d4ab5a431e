package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsExposition: /metrics speaks Prometheus text format 0.0.4 and
// its counters track the planner's — on a single-node daemon the fleet
// per-peer series are absent while the fallback counter (a planner stat) is
// always exported.
func TestMetricsExposition(t *testing.T) {
	ts := newTestServer(t)

	if status, out := postJSON(t, ts.URL+"/v1/solve", `{"model":"alexnet","gpus":8}`); status != http.StatusOK {
		t.Fatalf("solve: %d %v", status, out)
	}
	postJSON(t, ts.URL+"/v1/solve", `{"model":"alexnet","gpus":8}`) // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q, want the 0.0.4 text exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE pase_solves_total counter",
		"pase_solves_total 1",
		"pase_result_cache_hits_total 1",
		"pase_requests_total 2",
		"# TYPE pase_request_memo_hits_total counter",
		"pase_request_memo_hits_total 1",
		"pase_request_memo_misses_total 1",
		"# TYPE pase_ready gauge",
		"pase_ready 1",
		"pase_cached_results 1",
		"pase_fleet_fallbacks_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "pase_fleet_peer_healthy") {
		t.Fatal("single-node daemon exported per-peer fleet series")
	}
}
