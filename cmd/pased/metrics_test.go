package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// getMetrics returns the /metrics body, after checking it is the 0.0.4 text
// exposition.
func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
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
	return string(raw)
}

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
	body := getMetrics(t, ts.URL)
	for _, want := range []string{
		"# HELP pase_solves_total /v1/stats planner.solves\n# TYPE pase_solves_total counter\npase_solves_total 1\n",
		"\npase_result_hits_total 1\n",
		"\npase_requests_total 2\n",
		"# TYPE pase_memo_hits_total counter\npase_memo_hits_total 1\n",
		"\npase_memo_misses_total 1\n",
		"# TYPE pase_ready gauge\npase_ready 1\n",
		"# TYPE pase_cached_results gauge\npase_cached_results 1\n",
		"\npase_fleet_fallbacks_total 0\n",
		"# TYPE pase_uptime_ms gauge\n", "# TYPE pase_draining gauge\n", "# TYPE pase_class_store_bytes gauge\n",
		"# TYPE pase_last_gap gauge\n", "# TYPE pase_queue_depth gauge\n", "# TYPE pase_in_flight gauge\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "pase_fleet_peer_") {
		t.Fatal("single-node daemon exported per-peer fleet series")
	}
}

// TestMetricsMirrorStats: every number and bool leaf of /v1/stats is exactly
// one /metrics series, named pase_ + section prefix + json key (+ _total on a
// counter), with the same value, and /metrics has no other series. The leaves
// are walked from the JSON, so a stats field added anywhere is checked here
// with no edit.
func TestMetricsMirrorStats(t *testing.T) {
	nodes := startFleetNodes(t, 2)
	a := nodes[0]
	local := requestOwnedBy(t, a.srv, a.srv.fleet.Self())
	// One forward, then a local solve and its hit.
	for _, body := range []string{requestOwnedBy(t, a.srv, nodes[1].url), local, local} {
		if status, out := postJSON(t, a.ts.URL+"/v1/solve", body); status != http.StatusOK {
			t.Fatalf("solve %s: %d %v", body, status, out)
		}
	}
	_, stats := getJSON(t, a.ts.URL+"/v1/stats")
	body := getMetrics(t, a.ts.URL)
	samples := map[string]float64{} // series (name and labels) → value
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if _, dup := samples[line[:i]]; dup || err != nil {
			t.Fatalf("sample %q: duplicate or unparsable (%v)", line, err)
		}
		samples[line[:i]] = v
	}
	// sections maps each /v1/stats section to its series prefix.
	sections := map[string]string{"": "pase_", "planner.": "pase_", "fleet.": "pase_fleet_", "fleet.peers[].": "pase_fleet_peer_"}
	mirrored := map[string]string{} // series → the leaf it mirrors
	var walk func(path, labels string, m map[string]any)
	walk = func(path, labels string, m map[string]any) {
		prefix, ok := sections[path]
		if !ok {
			t.Fatalf("/v1/stats section %q has no series prefix", path)
		}
		for key, v := range m {
			leaf := path + key
			var want float64
			switch v := v.(type) {
			case map[string]any:
				walk(leaf+".", labels, v)
				continue
			case []any:
				for _, e := range v {
					peer := e.(map[string]any)
					walk(leaf+"[].", fmt.Sprintf("{peer=%q}", peer["id"]), peer)
				}
				continue
			case float64:
				want = v
			case bool:
				if v {
					want = 1
				}
			default:
				continue
			}
			if leaf == "fleet.fallbacks" { // tagged metric:"-"
				continue
			}
			family, typ := prefix+key+"_total", "counter"
			if _, gauge := samples[prefix+key+labels]; gauge {
				family, typ = prefix+key, "gauge"
			}
			series := family + labels
			got, ok := samples[series]
			switch {
			case !ok:
				t.Errorf("/v1/stats %s: no series %s on /metrics", leaf, series)
			case !strings.Contains(body, "# TYPE "+family+" "+typ+"\n"):
				t.Errorf("/v1/stats %s: %s is not TYPE %s", leaf, family, typ)
			case mirrored[series] != "":
				t.Errorf("/v1/stats %s and %s both map to %s", mirrored[series], leaf, series)
			case got != want && leaf != "uptime_ms": // uptime moves between the two GETs
				t.Errorf("%s = %g, /v1/stats %s = %g", series, got, leaf, want)
			}
			mirrored[series] = leaf
		}
	}
	walk("", "", stats)
	for series := range samples {
		if mirrored[series] == "" {
			t.Errorf("/metrics series %s mirrors no /v1/stats leaf", series)
		}
	}
	if samples["pase_fleet_forwards_total"] != 1 || samples["pase_result_hits_total"] != 1 {
		t.Fatalf("want one forward and one local hit:\n%s", body)
	}
}
