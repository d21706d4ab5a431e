package main

import (
	"fmt"
	"net/http"
	"strings"
	"time"
)

// handleMetrics serves the daemon's counters in Prometheus text exposition
// format (version 0.0.4), hand-rolled — the counters already exist on the
// planner and fleet layers, so an exporter dependency would buy nothing. The
// set mirrors /v1/stats (TestMetricsCoverPlannerStats names the few planner
// and fleet stats that stay there only); /metrics exists so the standard
// scrape-and-alert stack works against a fleet out of the box.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.pl.Stats()
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("pase_requests_total", "HTTP requests served (all routes that solve).", s.served.Load())
	counter("pase_spec_solves_total", "Inline-spec solves served.", s.specSolves.Load())
	counter("pase_spec_errors_total", "Inline-spec requests rejected by ingestion.", s.specErrors.Load())
	counter("pase_request_memo_hits_total", "Request bodies resolved to their fingerprint by hash.", s.memo.hits.Load())
	counter("pase_request_memo_misses_total", "Request bodies the memo had not seen (decoded and lowered in full).", s.memo.misses.Load())
	counter("pase_solves_total", "Underlying solves completed.", st.Solves)
	counter("pase_model_builds_total", "Cost models constructed.", st.ModelBuilds)
	counter("pase_result_cache_hits_total", "Result-cache hits.", st.ResultHits)
	counter("pase_result_cache_misses_total", "Result-cache misses.", st.ResultMisses)
	counter("pase_result_cache_evictions_total", "Result-cache evictions.", st.ResultEvictions)
	counter("pase_dedup_waits_total", "Requests that joined an in-flight identical solve.", st.DedupWaits)
	counter("pase_cancelled_total", "Requests cancelled while waiting on a flight.", st.Cancelled)
	counter("pase_shed_total", "Requests shed by admission control.", st.Shed)
	counter("pase_queued_total", "Requests that waited for a solve slot.", st.Queued)
	counter("pase_degraded_total", "dp requests served via the degradation ladder.", st.Degraded)
	counter("pase_panics_total", "Solves or model builds that panicked (isolated).", st.Panics)
	counter("pase_restored_results_total", "Result-cache entries restored from a snapshot.", st.RestoredResults)
	counter("pase_beam_solves_total", "Underlying beam solves completed.", st.BeamSolves)
	counter("pase_beam_fallbacks_total", "Unbounded beam requests routed to the exact DP.", st.BeamFallbacks)
	counter("pase_delta_resolves_total", "dp solves served by incremental re-solve.", st.DeltaResolves)
	counter("pase_delta_fallbacks_total", "dp solves that found a retained snapshot but ran in full.", st.DeltaFallbacks)
	counter("pase_class_store_hits_total", "Class tables resolved from the class store.", st.ClassStoreHits)
	counter("pase_class_store_misses_total", "Class tables built into the class store.", st.ClassStoreMisses)
	counter("pase_class_store_saved_bytes_total", "Table bytes class-store hits aliased instead of rebuilding.", st.ClassStoreSavedBytes)
	counter("pase_class_store_evictions_total", "Class-store entries dropped to hold its budget.", st.ClassStoreEvictions)
	gauge("pase_class_store_bytes", "Table bytes resident in the class store.", float64(st.ClassStoreBytes))
	gauge("pase_last_gap", "Optimality gap of the most recent beam solve.", st.LastGap)
	gauge("pase_queue_depth", "Requests currently waiting for a solve slot.", float64(st.QueueDepth))
	gauge("pase_in_flight", "Underlying solves currently running.", float64(st.InFlight))
	gauge("pase_cached_results", "Results resident in the LRU.", float64(s.pl.CacheSizes()))
	ready := 0.0
	if !s.notReady.Load() && !s.draining.Load() {
		ready = 1
	}
	gauge("pase_ready", "1 when the daemon reports ready on /v1/readyz.", ready)
	gauge("pase_uptime_seconds", "Seconds since the daemon started.", time.Since(s.start).Seconds())

	// Fleet counters: the local-fallback count lives on the planner (the
	// fallback is a solve), everything else on the fleet client.
	counter("pase_fleet_fallbacks_total", "Solves run locally in place of an unreachable owner.", st.FleetFallbacks)
	if s.fleet != nil {
		fst := s.fleet.Stats()
		counter("pase_fleet_forwards_total", "Solves forwarded to their owning peer.", fst.Forwards)
		counter("pase_fleet_forward_failures_total", "Forwards that exhausted retries and fell back.", fst.ForwardFailures)
		counter("pase_fleet_reroutes_total", "Forwards redirected to a live stand-in for a sick owner.", fst.Reroutes)
		counter("pase_fleet_retries_total", "Extra peer call attempts beyond each forward's first.", fst.Retries)
		fmt.Fprintf(&b, "# HELP pase_fleet_peer_healthy 1 while the peer is in the live ring: its last probe was ready and no forward failed since.\n# TYPE pase_fleet_peer_healthy gauge\n")
		for _, p := range fst.Peers {
			h := 0
			if p.Healthy {
				h = 1
			}
			fmt.Fprintf(&b, "pase_fleet_peer_healthy{peer=%q} %d\n", p.ID, h)
		}
		fmt.Fprintf(&b, "# HELP pase_fleet_peer_failures_total Peer call attempts that failed.\n# TYPE pase_fleet_peer_failures_total counter\n")
		for _, p := range fst.Peers {
			fmt.Fprintf(&b, "pase_fleet_peer_failures_total{peer=%q} %d\n", p.ID, p.Failures)
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}
