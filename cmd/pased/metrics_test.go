package main

import (
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"pase"
	"pase/internal/fleet"
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

// TestMetricsCoverPlannerStats: every planner and fleet stat /v1/stats
// reports (the json tags of pase.PlannerStats, fleet.Stats and
// fleet.PeerStats, so a new field fails here until it is placed) is either a
// /metrics series or declared stats-only.
func TestMetricsCoverPlannerStats(t *testing.T) {
	planner := map[string]string{
		"solves":                  "pase_solves_total",
		"model_builds":            "pase_model_builds_total",
		"result_hits":             "pase_result_cache_hits_total",
		"result_misses":           "pase_result_cache_misses_total",
		"result_evictions":        "pase_result_cache_evictions_total",
		"dedup_waits":             "pase_dedup_waits_total",
		"cancelled":               "pase_cancelled_total",
		"class_store_hits":        "pase_class_store_hits_total",
		"class_store_misses":      "pase_class_store_misses_total",
		"class_store_bytes":       "pase_class_store_bytes",
		"class_store_saved_bytes": "pase_class_store_saved_bytes_total",
		"class_store_evictions":   "pase_class_store_evictions_total",
		"delta_resolves":          "pase_delta_resolves_total",
		"delta_fallbacks":         "pase_delta_fallbacks_total",
		"beam_solves":             "pase_beam_solves_total",
		"beam_fallbacks":          "pase_beam_fallbacks_total",
		"last_gap":                "pase_last_gap",
		"shed":                    "pase_shed_total",
		"queued":                  "pase_queued_total",
		"queue_depth":             "pase_queue_depth",
		"in_flight":               "pase_in_flight",
		"degraded":                "pase_degraded_total",
		"panics":                  "pase_panics_total",
		"restored_results":        "pase_restored_results_total",
		"fleet_fallbacks":         "pase_fleet_fallbacks_total",
	}
	// Sums of per-model shape numbers every solve response already carries:
	// diagnostic on /v1/stats, nothing to alert on.
	plannerOnly := map[string]bool{
		"vertex_classes":     true,
		"edge_classes":       true,
		"shared_table_bytes": true,
	}
	fleetSeries := map[string]string{
		"forwards":         "pase_fleet_forwards_total",
		"forward_failures": "pase_fleet_forward_failures_total",
		// The fallback count /metrics exports is the planner's: the
		// fallback is a solve.
		"fallbacks": "pase_fleet_fallbacks_total",
		"reroutes":  "pase_fleet_reroutes_total",
		"retries":   "pase_fleet_retries_total",
		// peers is the per-peer block, checked field by field below.
		"peers": "pase_fleet_peer_healthy",
	}
	peerSeries := map[string]string{
		// id is the series' peer label.
		"id":       "pase_fleet_peer_healthy",
		"healthy":  "pase_fleet_peer_healthy",
		"failures": "pase_fleet_peer_failures_total",
	}
	// self is the daemon's own identity, breaker repeats healthy, and the
	// success and probe counts only confirm that calls happen.
	fleetOnly := map[string]bool{"self": true}
	peerOnly := map[string]bool{"breaker": true, "successes": true, "probes": true}

	resp, err := http.Get(startFleetNodes(t, 2)[0].ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind      string
		typ       reflect.Type
		series    map[string]string
		statsOnly map[string]bool
	}{
		{"planner", reflect.TypeOf(pase.PlannerStats{}), planner, plannerOnly},
		{"fleet", reflect.TypeOf(fleet.Stats{}), fleetSeries, fleetOnly},
		{"fleet peer", reflect.TypeOf(fleet.PeerStats{}), peerSeries, peerOnly},
	} {
		for i := 0; i < c.typ.NumField(); i++ {
			tag := c.typ.Field(i).Tag.Get("json")
			name, exposed := c.series[tag]
			switch {
			case exposed && c.statsOnly[tag]:
				t.Errorf("%s stat %q is declared both exposed and stats-only", c.kind, tag)
			case exposed:
				if !strings.Contains(string(raw), "\n# TYPE "+name+" ") {
					t.Errorf("%s stat %q: /metrics has no series %s", c.kind, tag, name)
				}
			case !c.statsOnly[tag]:
				t.Errorf("%s stat %q (%s) is neither on /metrics nor declared stats-only", c.kind, tag, c.typ.Field(i).Name)
			}
		}
	}
}
