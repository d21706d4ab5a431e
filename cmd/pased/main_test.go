package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pase"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := newServer(pase.NewPlanner(pase.PlannerConfig{}), 64, 0)
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

// The pprof listener binds only to loopback addresses.
func TestRequireLoopback(t *testing.T) {
	for addr, ok := range map[string]bool{
		"127.0.0.1:6060": true,
		"[::1]:6060":     true,
		"localhost:6060": true,
		":6060":          false,
		"0.0.0.0:6060":   false,
		"10.0.0.1:6060":  false,
		"example.com:80": false,
		"no port":        false,
	} {
		if err := requireLoopback(addr); (err == nil) != ok {
			t.Errorf("requireLoopback(%q) = %v, want success %v", addr, err, ok)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("healthz body %v", body)
	}
}

func TestSolveRoundTripAndCache(t *testing.T) {
	ts := newTestServer(t)
	const req = `{"model":"alexnet","gpus":8,"machine":"1080ti"}`

	status, first := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("solve status %d: %v", status, first)
	}
	if first["cached"] != false {
		t.Fatalf("first solve cached: %v", first["cached"])
	}
	doc, ok := first["strategy"].(map[string]any)
	if !ok {
		t.Fatalf("no strategy document: %v", first)
	}
	if doc["model"] != "AlexNet" || doc["devices"] != float64(8) {
		t.Fatalf("bad document header: %v", doc)
	}
	layers, ok := doc["layers"].([]any)
	if !ok || len(layers) == 0 {
		t.Fatalf("document has no layers: %v", doc)
	}
	if doc["fingerprint"] == "" || doc["fingerprint"] != first["fingerprint"] {
		t.Fatalf("fingerprint missing or inconsistent: %v vs %v", doc["fingerprint"], first["fingerprint"])
	}
	// The configuration-space size rides along on the wire.
	if ke, ok := first["k_effective"].(float64); !ok || ke <= 0 {
		t.Fatalf("k_effective missing or non-positive: %v", first["k_effective"])
	}
	// Structural-sharing stats ride along too: class counts are positive and
	// the resident table footprint is non-zero for any model-building solve.
	if vc, ok := first["vertex_classes"].(float64); !ok || vc <= 0 {
		t.Fatalf("vertex_classes missing or non-positive: %v", first["vertex_classes"])
	}
	if tb, ok := first["table_bytes"].(float64); !ok || tb <= 0 {
		t.Fatalf("table_bytes missing or non-positive: %v", first["table_bytes"])
	}

	status, second := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK || second["cached"] != true {
		t.Fatalf("second identical solve not cached: %d %v", status, second["cached"])
	}
	a, _ := json.Marshal(first["strategy"])
	b, _ := json.Marshal(second["strategy"])
	if !bytes.Equal(a, b) {
		t.Fatal("cached strategy differs from original")
	}
}

func TestSolveValidation(t *testing.T) {
	ts := newTestServer(t)
	for body, wantStatus := range map[string]int{
		`{"model":"nope","gpus":8}`:                     http.StatusBadRequest,
		`{"model":"alexnet","gpus":0}`:                  http.StatusBadRequest,
		`{"model":"alexnet","gpus":4096}`:               http.StatusBadRequest,
		`{"model":"alexnet","gpus":8,"machine":"v100"}`: http.StatusBadRequest,
		`not json`: http.StatusBadRequest,
		`{"model":"alexnet","gpus":8,"machine":"uniform:4:1e12:1e10:5e9"}`: http.StatusOK,
		`{"model":"alexnet","gpus":1}`:                                     http.StatusOK,
		`{"model":"alexnet","gpus":64}`:                                    http.StatusOK,
		`{"model":"alexnet","gpus":8,"priority":100}`:                      http.StatusOK,
		`{"model":"alexnet","gpus":8,"priority":-100}`:                     http.StatusOK,
	} {
		status, out := postJSON(t, ts.URL+"/v1/solve", body)
		if status != wantStatus {
			t.Errorf("solve(%s) status %d, want %d (%v)", body, status, wantStatus, out)
		}
	}
	// A device count is refused by its own bounds, before any machine is built.
	if _, out := postJSON(t, ts.URL+"/v1/solve", `{"model":"alexnet","gpus":0}`); out["error"] != "gpus 0 out of range [1, 64]" {
		t.Errorf("gpus 0: %v", out)
	}
	// The OOM outcome maps to 503 with the stable code "oom" (degradation is
	// off in this zero-config server, so the error surfaces).
	status, out := postJSON(t, ts.URL+"/v1/solve",
		`{"model":"inceptionv3","gpus":8,"options":{"breadth_first":true}}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("BF InceptionV3 status %d, want 503 (%v)", status, out)
	}
	if out["code"] != "oom" {
		t.Fatalf("BF InceptionV3 code %v, want %q", out["code"], "oom")
	}
	// Priority is bounded in both directions.
	for _, body := range []string{
		`{"model":"alexnet","gpus":8,"priority":101}`,
		`{"model":"alexnet","gpus":8,"priority":-101}`,
	} {
		if status, out := postJSON(t, ts.URL+"/v1/solve", body); status != http.StatusBadRequest {
			t.Errorf("solve(%s) status %d, want 400 (%v)", body, status, out)
		}
	}
}

// A uniform machine with a NaN or infinite rate is a bad request: before
// machine.Parse rejected them, NaN flops failed as a 500 when the +Inf cost
// could not be encoded, and an infinite inter-node bandwidth was solved.
func TestSolveRejectsNonFiniteMachineRates(t *testing.T) {
	ts := newTestServer(t)
	for _, body := range []string{
		`{"model":"alexnet","gpus":8,"machine":"uniform:8:nan:12e9:10e9"}`,
		`{"model":"alexnet","gpus":32,"machine":"uniform:8:11e12:12e9:inf"}`,
	} {
		if status, out := postJSON(t, ts.URL+"/v1/solve", body); status != http.StatusBadRequest || out["code"] != "bad_request" {
			t.Errorf("solve(%s) = %d %v, want 400 bad_request", body, status, out)
		}
	}
}

func TestBatchMixedValidAndInvalid(t *testing.T) {
	ts := newTestServer(t)
	status, out := postJSON(t, ts.URL+"/v1/batch", `{"requests":[
		{"model":"alexnet","gpus":8},
		{"model":"nope","gpus":8},
		{"model":"rnnlm","gpus":16},
		{"model":"alexnet","gpus":"8"}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %v", status, out)
	}
	results, ok := out["results"].([]any)
	if !ok || len(results) != 4 {
		t.Fatalf("batch results: %v", out)
	}
	first := results[0].(map[string]any)
	if first["strategy"] == nil || first["error"] != nil {
		t.Fatalf("entry 0 should have solved: %v", first)
	}
	bad := results[1].(map[string]any)
	if bad["error"] == nil || !strings.Contains(bad["error"].(string), "nope") {
		t.Fatalf("entry 1 should carry its own error: %v", bad)
	}
	third := results[2].(map[string]any)
	if third["strategy"] == nil {
		t.Fatalf("entry 2 should have solved: %v", third)
	}
	// A JSON type error fails only its own item.
	mistyped := results[3].(map[string]any)
	if mistyped["error"] == nil || !strings.Contains(mistyped["error"].(string), "decode request") {
		t.Fatalf("entry 3 should carry its own decode error: %v", mistyped)
	}
}

func TestConcurrentMixedSolveAndBatch(t *testing.T) {
	// The acceptance criterion: pased serves concurrent mixed solve/batch
	// traffic correctly under -race. Identical requests across goroutines
	// must come back byte-identical. Every goroutine repeats its request, so
	// the memo and the stored bytes are filled and served concurrently too.
	ts := newTestServer(t)
	const solveReq = `{"model":"alexnet","gpus":8}`
	const batchReq = `{"requests":[{"model":"alexnet","gpus":8},{"model":"rnnlm","gpus":8}]}`

	var wg sync.WaitGroup
	strategies := make([][]byte, 24)
	errs := make([]error, 24)
	for i := range strategies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 3 && errs[i] == nil; rep++ {
				var doc any
				if i%2 == 0 {
					status, out := postJSONNoFatal(ts.URL+"/v1/solve", solveReq)
					if status != http.StatusOK {
						errs[i] = fmt.Errorf("solve status %d: %v", status, out)
						return
					}
					doc = out["strategy"]
				} else {
					status, out := postJSONNoFatal(ts.URL+"/v1/batch", batchReq)
					if status != http.StatusOK {
						errs[i] = fmt.Errorf("batch status %d: %v", status, out)
						return
					}
					results := out["results"].([]any)
					entry := results[0].(map[string]any)
					if entry["error"] != nil {
						errs[i] = fmt.Errorf("batch entry error: %v", entry["error"])
						return
					}
					doc = entry["strategy"]
				}
				var again []byte
				if again, errs[i] = json.Marshal(doc); rep > 0 && !bytes.Equal(again, strategies[i]) {
					errs[i] = fmt.Errorf("repeat %d returned a different strategy", rep)
				}
				strategies[i] = again
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < len(strategies); i++ {
		if !bytes.Equal(strategies[i], strategies[0]) {
			t.Fatalf("request %d returned a different AlexNet p=8 strategy", i)
		}
	}
}

func postJSONNoFatal(url, body string) (int, map[string]any) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, map[string]any{"transport_error": err.Error()}
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, map[string]any{"decode_error": err.Error()}
	}
	return resp.StatusCode, out
}

func TestStats(t *testing.T) {
	ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/solve", `{"model":"alexnet","gpus":8}`)
	postJSON(t, ts.URL+"/v1/solve", `{"model":"alexnet","gpus":8}`)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	pl, ok := out["planner"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing planner block: %v", out)
	}
	if pl["solves"] != float64(1) || pl["result_hits"] != float64(1) {
		t.Fatalf("planner stats: %v", pl)
	}
	if out["requests"] != float64(2) {
		t.Fatalf("requests = %v, want 2", out["requests"])
	}
	// The memo reports its own ratio: the first body was new, its repeat known.
	if out["memo_hits"] != float64(1) || out["memo_misses"] != float64(1) {
		t.Fatalf("memo_hits = %v, memo_misses = %v, want 1 and 1", out["memo_hits"], out["memo_misses"])
	}
	// Structural-sharing counters: one model build happened, so class counts
	// are positive and bounded by the graph size.
	if vc, ok := pl["vertex_classes"].(float64); !ok || vc <= 0 {
		t.Fatalf("vertex_classes missing or non-positive: %v", pl["vertex_classes"])
	}
	if ec, ok := pl["edge_classes"].(float64); !ok || ec <= 0 {
		t.Fatalf("edge_classes missing or non-positive: %v", pl["edge_classes"])
	}
	if _, ok := pl["shared_table_bytes"].(float64); !ok {
		t.Fatalf("shared_table_bytes missing: %v", pl["shared_table_bytes"])
	}
}

func TestSolveOptionBounds(t *testing.T) {
	ts := newTestServer(t)
	for _, body := range []string{
		`{"model":"alexnet","gpus":8,"options":{"workers":1000000000}}`,
		`{"model":"alexnet","gpus":8,"options":{"workers":-1}}`,
		`{"model":"alexnet","gpus":8,"options":{"max_table_entries":9223372036854775807}}`,
		`{"model":"alexnet","gpus":8,"options":{"max_table_entries":-5}}`,
		`{"model":"alexnet","gpus":8,"options":{"max_split_dims":-1}}`,
		`{"model":"alexnet","gpus":8,"options":{"method":"beam","beam_width":-1}}`,
		`{"model":"alexnet","gpus":8,"options":{"method":"beam","beam_width":65537}}`,
	} {
		if status, out := postJSON(t, ts.URL+"/v1/solve", body); status != http.StatusBadRequest {
			t.Errorf("solve(%s) status %d, want 400 (%v)", body, status, out)
		}
	}
	// In-range options still work, up to each bound.
	for _, body := range []string{
		`{"model":"alexnet","gpus":8,"options":{"workers":2,"max_table_entries":1048576}}`,
		`{"model":"alexnet","gpus":8,"options":{"workers":256,"max_table_entries":134217728}}`,
		`{"model":"alexnet","gpus":8,"options":{"method":"beam","beam_width":65536,"gap_target":1e6}}`,
	} {
		if status, out := postJSON(t, ts.URL+"/v1/solve", body); status != http.StatusOK {
			t.Fatalf("bounded options %s rejected: %d %v", body, status, out)
		}
	}
	// Options that name no policy keep the model's own (the Transformer's
	// restricts the split dims), as spelling it out does.
	bm, err := pase.BenchmarkByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	var fps []any
	for _, opts := range []string{`"method":"dataparallel"`, fmt.Sprintf(`"method":"dataparallel","max_split_dims":%d`, bm.Policy(8).MaxSplitDims)} {
		status, out := postJSON(t, ts.URL+"/v1/solve", `{"model":"transformer","gpus":8,"options":{`+opts+`}}`)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d %v", opts, status, out)
		}
		fps = append(fps, out["fingerprint"])
	}
	if fps[0] != fps[1] {
		t.Fatalf("the model's policy, implied and spelled out: fingerprints %v", fps)
	}
}

// TestPruneEpsilonOnTheWireIsIgnored: the retired prune_epsilon option is an
// unknown key to the non-strict decoder — a body still carrying it gets the
// exact answer under the same fingerprint as the body without it.
func TestPruneEpsilonOnTheWireIsIgnored(t *testing.T) {
	ts := newTestServer(t)
	status, ref := postJSON(t, ts.URL+"/v1/solve", `{"model":"alexnet","gpus":8}`)
	if status != http.StatusOK {
		t.Fatalf("reference solve: %d %v", status, ref)
	}
	status, out := postJSON(t, ts.URL+"/v1/solve", `{"model":"alexnet","gpus":8,"options":{"prune_epsilon":0.1}}`)
	if status != http.StatusOK || out["exact"] != true {
		t.Fatalf("body with prune_epsilon: %d exact=%v (%v)", status, out["exact"], out["error"])
	}
	if out["fingerprint"] != ref["fingerprint"] || out["cost_seconds"] != ref["cost_seconds"] {
		t.Fatalf("prune_epsilon moved the answer: fingerprint %v cost %v, want %v / %v",
			out["fingerprint"], out["cost_seconds"], ref["fingerprint"], ref["cost_seconds"])
	}
}

func TestCompareEndpoint(t *testing.T) {
	ts := newTestServer(t)
	alexnet, err := pase.BenchmarkByName("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	status, out := postJSON(t, ts.URL+"/v1/compare", `{"model":"alexnet","gpus":8}`)
	if status != http.StatusOK {
		t.Fatalf("compare status %d: %v", status, out)
	}
	if out["baseline"] != "dataparallel" || out["model"] != "AlexNet" {
		t.Fatalf("compare header: %v", out)
	}
	entries, ok := out["entries"].([]any)
	wantMethods := []string{"dataparallel", "expert:cnn", "mcmc", "beam", "dp"}
	if !ok || len(entries) != len(wantMethods) {
		t.Fatalf("compare entries: %v", out["entries"])
	}
	var dpSpeedup, baseSpeedup float64
	for i, raw := range entries {
		e := raw.(map[string]any)
		if e["method"] != wantMethods[i] {
			t.Fatalf("entry %d method %v, want %s", i, e["method"], wantMethods[i])
		}
		if e["error"] != nil {
			t.Fatalf("entry %s: %v", wantMethods[i], e["error"])
		}
		sp, _ := e["speedup_vs_dp"].(float64)
		switch wantMethods[i] {
		case "dataparallel":
			baseSpeedup = sp
		case "dp":
			dpSpeedup = sp
		}
		if cs, _ := e["cost_seconds"].(float64); cs <= 0 || e["step_ms"] == nil {
			t.Fatalf("entry %s cost_seconds %v, step_ms %v", wantMethods[i], e["cost_seconds"], e["step_ms"])
		}
		// Without a batch in the body a step simulates the model's own.
		stepMs, _ := e["step_ms"].(float64)
		if tput, _ := e["throughput"].(float64); math.Abs(tput*stepMs/1e3-float64(alexnet.Batch)) > 1e-9*float64(alexnet.Batch) {
			t.Fatalf("entry %s throughput %v at step %v ms, want batch %d per step", wantMethods[i], tput, stepMs, alexnet.Batch)
		}
	}
	if baseSpeedup != 1 {
		t.Fatalf("baseline speedup = %v, want 1", baseSpeedup)
	}
	if dpSpeedup <= 1 {
		t.Fatalf("dp speedup over data parallelism = %v, want > 1", dpSpeedup)
	}

	// An explicit method list is honored; a bad one is a 400.
	status, out = postJSON(t, ts.URL+"/v1/compare",
		`{"model":"alexnet","gpus":8,"methods":["dataparallel","dp"]}`)
	if status != http.StatusOK {
		t.Fatalf("explicit methods status %d: %v", status, out)
	}
	if entries := out["entries"].([]any); len(entries) != 2 {
		t.Fatalf("explicit methods entries: %v", out["entries"])
	}
	if status, out = postJSON(t, ts.URL+"/v1/compare",
		`{"model":"alexnet","gpus":8,"methods":["genetic"]}`); status != http.StatusBadRequest {
		t.Fatalf("bad method list status %d: %v", status, out)
	}
	// The method list is bounded: 8 entries run, 9 are a 400.
	for n, want := range map[int]int{maxCompareMethods: http.StatusOK, maxCompareMethods + 1: http.StatusBadRequest} {
		methods := strings.Repeat(`"dataparallel",`, n)
		body := fmt.Sprintf(`{"model":"alexnet","gpus":8,"methods":[%s]}`, methods[:len(methods)-1])
		if status, out = postJSON(t, ts.URL+"/v1/compare", body); status != want {
			t.Fatalf("%d methods: status %d, want %d (%v)", n, status, want, out)
		}
	}
}

func TestSolveMethodOverWire(t *testing.T) {
	ts := newTestServer(t)
	status, out := postJSON(t, ts.URL+"/v1/solve",
		`{"model":"rnnlm","gpus":8,"options":{"method":"expert:rnn"}}`)
	if status != http.StatusOK {
		t.Fatalf("expert solve status %d: %v", status, out)
	}
	if out["method"] != "expert:rnn" {
		t.Fatalf("method = %v", out["method"])
	}
	doc := out["strategy"].(map[string]any)
	if doc["method"] != "expert:rnn" {
		t.Fatalf("document method = %v", doc["method"])
	}
	// Distinct methods have distinct fingerprints on the same model/machine.
	_, dp := postJSON(t, ts.URL+"/v1/solve", `{"model":"rnnlm","gpus":8}`)
	if dp["fingerprint"] == out["fingerprint"] {
		t.Fatal("dp and expert:rnn share a fingerprint")
	}
	// Unknown methods are rejected at validation time.
	for _, body := range []string{
		`{"model":"rnnlm","gpus":8,"options":{"method":"genetic"}}`,
		`{"model":"rnnlm","gpus":8,"options":{"method":"expert:gnn"}}`,
	} {
		if status, out := postJSON(t, ts.URL+"/v1/solve", body); status != http.StatusBadRequest {
			t.Fatalf("solve(%s) status %d, want 400 (%v)", body, status, out)
		}
	}
}

// Kept by hand: no mutant reaches cancellation polling.
func TestClientDisconnectAbortsSolve(t *testing.T) {
	// The ROADMAP scenario: a client requests a heavy solve and goes away.
	// The daemon must abort the underlying solve instead of finishing it for
	// nobody — observable as the planner recording no completed solve and a
	// follow-up identical request starting cold. The first solve is held at
	// the solve site by a latency only the hang-up ends, on any host.
	pl := pase.NewPlanner(pase.PlannerConfig{FaultPlan: mustFaults(t, "solve:latency:1m:1")})
	ts := httptest.NewServer(newServer(pl, 64, 0).mux())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve",
		strings.NewReader(`{"model":"inceptionv3","gpus":32}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Wait for the solve to actually start server-side, then hang up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := pl.Stats(); st.ResultMisses >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("solve never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("client request succeeded despite disconnect")
	}
	// The aborted solve never completes: Cancelled ticks up, Solves stays 0.
	for {
		st := pl.Stats()
		if st.Cancelled >= 1 {
			if st.Solves != 0 {
				t.Fatalf("solve completed despite disconnect: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never recorded the cancellation: %+v", pl.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	// A later identical request is cold (nothing was cached)...
	status, out := postJSON(t, ts.URL+"/v1/solve", `{"model":"inceptionv3","gpus":32}`)
	if status != http.StatusOK {
		t.Fatalf("follow-up solve status %d: %v", status, out)
	}
	if out["cached"] != false {
		t.Fatal("follow-up solve was served from a cache the aborted solve should not have filled")
	}
}

func TestSolveTimeoutMapsToGatewayTimeout(t *testing.T) {
	// A daemon-side -solve-timeout aborts the solve mid-flight and reports
	// 504, distinguishing "the solve was too slow" from client hangups. The
	// solve is held at the solve site by a latency only the deadline ends,
	// so it outlasts the 20 ms timeout on any host.
	pl := pase.NewPlanner(pase.PlannerConfig{FaultPlan: mustFaults(t, "solve:latency:1m")})
	ts := httptest.NewServer(newServer(pl, 64, 20*time.Millisecond).mux())
	defer ts.Close()
	status, out := postJSON(t, ts.URL+"/v1/solve", `{"model":"inceptionv3","gpus":32}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%v)", status, out)
	}
	if out["code"] != "timeout" {
		t.Fatalf("code %v, want %q", out["code"], "timeout")
	}
}
