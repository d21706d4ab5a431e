package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"pase"
	"pase/internal/fleet"
)

// postRaw posts body and returns the status with the response's own bytes.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

var totalNsLine = regexp.MustCompile(`(?m)^    "total_ns": .*\n`)

// sansTotalNs deletes the timings' total_ns line, the one part of a hit's
// body that differs between two requests.
func sansTotalNs(t *testing.T, body []byte) string {
	t.Helper()
	if n := len(totalNsLine.FindAll(body, -1)); n != 1 {
		t.Fatalf("body has %d total_ns lines, want 1:\n%s", n, body)
	}
	return string(totalNsLine.ReplaceAll(body, nil))
}

// wantReferenceBytes fails unless body is, byte for byte, what the reference
// encoder produces for the response value body decodes to — total_ns
// included. Decoding into the typed response and encoding it again is also
// what a forwarder did to every relayed answer before it relayed bytes.
func wantReferenceBytes(t *testing.T, what string, body []byte) *solveResponse {
	t.Helper()
	resp, err := referenceBytes(body)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return resp
}

// referenceBytes is wantReferenceBytes for any goroutine: it returns an error
// where that fails the test.
func referenceBytes(body []byte) (*solveResponse, error) {
	var resp solveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	ref, err := encodeJSON(&resp)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(ref, body) {
		return nil, fmt.Errorf("differs from the reference encoder's output for the same response:\ngot:\n%s\nwant:\n%s", body, ref)
	}
	return &resp, nil
}

func (m *requestMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries.Len()
}

func memoEntryOf(s *server, body string) (memoEntry, bool) {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return s.memo.entries.Get(sha256.Sum256([]byte(body)))
}

// TestMemoSpellingsShareOneAnswer: two bodies for one request — different
// whitespace, key order and priority — are two memo keys onto one fingerprint
// and one cached answer, and every repeat of either is a hit.
func TestMemoSpellingsShareOneAnswer(t *testing.T) {
	pl := pase.NewPlanner(pase.PlannerConfig{})
	s := newServer(pl, 64, 0)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	spellings := []string{
		`{"model":"alexnet","gpus":8,"options":{"workers":1}}`,
		"{ \"options\": {\"workers\": 1},\n  \"priority\": 7, \"gpus\": 8,\t\"model\": \"alexnet\" }\n",
	}

	status, first := postRaw(t, ts.URL+"/v1/solve", spellings[0])
	if status != http.StatusOK {
		t.Fatalf("first solve: %d %s", status, first)
	}
	want := wantReferenceBytes(t, "first solve", first)
	if want.Cached {
		t.Fatal("first solve cached")
	}
	strategy, _ := json.Marshal(want.Strategy)
	for rep := 0; rep < 3; rep++ {
		for i, body := range spellings {
			status, raw := postRaw(t, ts.URL+"/v1/solve", body)
			if status != http.StatusOK {
				t.Fatalf("spelling %d repeat %d: %d %s", i, rep, status, raw)
			}
			got := wantReferenceBytes(t, fmt.Sprintf("spelling %d repeat %d", i, rep), raw)
			if !got.Cached || got.Timings != (pase.Timings{Total: got.Timings.Total}) || got.Fingerprint != want.Fingerprint || got.CostSeconds != want.CostSeconds {
				t.Fatalf("spelling %d repeat %d: cached=%v timings=%+v fingerprint=%s cost=%v, want a hit carrying total_ns alone on %s at %v",
					i, rep, got.Cached, got.Timings, got.Fingerprint, got.CostSeconds, want.Fingerprint, want.CostSeconds)
			}
			if doc, _ := json.Marshal(got.Strategy); !bytes.Equal(doc, strategy) {
				t.Fatalf("spelling %d repeat %d: strategy differs from the first solve's", i, rep)
			}
		}
	}
	if st := pl.Stats(); st.Solves != 1 || st.ResultHits != 6 {
		t.Fatalf("planner stats %+v, want 1 solve and 6 hits", st)
	}
	// Seven requests, two distinct bodies: each missed once.
	if n, hits, misses := s.memo.len(), s.memo.hits.Load(), s.memo.misses.Load(); n != 2 || hits != 5 || misses != 2 {
		t.Fatalf("memo: %d entries, %d hits, %d misses, want 2, 5, 2", n, hits, misses)
	}
}

// TestInvalidBodiesNeverMemoised: a body that fails validation answers the
// same 400, details and all, on every repeat — each time by the full route,
// because only a body that was lowered and fingerprinted is remembered.
func TestInvalidBodiesNeverMemoised(t *testing.T) {
	s := newServer(pase.NewPlanner(pase.PlannerConfig{}), 64, 0)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	brokenSpec := specBody(strings.Replace(tinySpec, `"flops_per_point": 2`, `"flops_per_point": -2`, 1))
	for name, body := range map[string]string{
		"bad option bound": `{"model":"alexnet","gpus":8,"options":{"workers":-1}}`,
		"broken spec":      brokenSpec,
		"not json":         `{"model":`,
	} {
		var first []byte
		for rep := 0; rep < 3; rep++ {
			status, raw := postRaw(t, ts.URL+"/v1/solve", body)
			if status != http.StatusBadRequest {
				t.Fatalf("%s repeat %d: status %d, want 400: %s", name, rep, status, raw)
			}
			if rep == 0 {
				first = raw
			} else if !bytes.Equal(raw, first) {
				t.Fatalf("%s repeat %d answered differently:\n%s\nfirst:\n%s", name, rep, raw, first)
			}
		}
		if name == "broken spec" && !bytes.Contains(first, []byte(`"path": "nodes[1].flops_per_point"`)) {
			t.Fatalf("broken spec carries no path-addressed details: %s", first)
		}
	}
	if n, hits, misses := s.memo.len(), s.memo.hits.Load(), s.memo.misses.Load(); n != 0 || hits != 0 || misses != 9 {
		t.Fatalf("memo: %d entries, %d hits, %d misses, want 0, 0, 9", n, hits, misses)
	}
	if got := s.specErrors.Load(); got != 3 {
		t.Fatalf("spec_errors = %d, want 3 (every repeat of the broken spec is rejected anew)", got)
	}
}

// TestMemoBounded: more distinct bodies than memoCap leave the memo at
// memoCap entries, the oldest forgotten first.
func TestMemoBounded(t *testing.T) {
	s := newServer(pase.NewPlanner(pase.PlannerConfig{ResultCacheSize: 4}), 64, 0)
	ctx := context.Background()
	body := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"model":"alexnet","gpus":4,"batch":%d,"options":{"method":"dataparallel"}}`, 8*(i+1)))
	}
	const extra = 10
	for i := 0; i < memoCap+extra; i++ {
		if _, apiErr := s.serveOne(ctx, body(i), false, new([]byte)); apiErr != nil {
			t.Fatalf("body %d: %v", i, apiErr.Error)
		}
		if n := s.memo.len(); n > memoCap {
			t.Fatalf("memo holds %d entries after body %d, cap %d", n, i, memoCap)
		}
	}
	if n := s.memo.len(); n != memoCap {
		t.Fatalf("memo holds %d entries, want exactly the cap %d", n, memoCap)
	}
	for i, want := range map[int]bool{0: false, extra - 1: false, extra: true, memoCap + extra - 1: true} {
		if _, ok := memoEntryOf(s, string(body(i))); ok != want {
			t.Fatalf("body %d remembered = %v, want %v (oldest forgotten first)", i, ok, want)
		}
	}
}

// TestStoredBytesMatchReferenceEncoder: the third answer to a body is written
// from stored bytes, and must be what the reference encoder wrote for the
// second — the same response value — bar the total_ns value.
func TestStoredBytesMatchReferenceEncoder(t *testing.T) {
	s := newServer(pase.NewPlanner(pase.PlannerConfig{}), 64, 0)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	for name, body := range map[string]string{
		"registry":    `{"model":"alexnet","gpus":8}`,
		"inline spec": specBody(tinySpec),
	} {
		var answers [4][]byte
		for i := range answers {
			var status int
			if status, answers[i] = postRaw(t, ts.URL+"/v1/solve", body); status != http.StatusOK {
				t.Fatalf("%s request %d: %d %s", name, i, status, answers[i])
			}
			// The solve and the first hit are encoded; the first hit's bytes
			// are what later hits are written from.
			if ent, _ := memoEntryOf(s, body); (ent.from != nil) != (i >= 1) {
				t.Fatalf("%s: after request %d the memo has stored bytes = %v", name, i, ent.from != nil)
			}
			resp := wantReferenceBytes(t, fmt.Sprintf("%s request %d", name, i), answers[i])
			if resp.Cached != (i >= 1) {
				t.Fatalf("%s request %d: cached = %v", name, i, resp.Cached)
			}
		}
		for i := 2; i < len(answers); i++ {
			if got, want := sansTotalNs(t, answers[i]), sansTotalNs(t, answers[1]); got != want {
				t.Fatalf("%s: stored-bytes answer %d differs from the encoded hit:\ngot:\n%s\nwant:\n%s", name, i, got, want)
			}
		}
	}
	if got := s.specSolves.Load(); got != 4 {
		t.Fatalf("spec_solves = %d, want 4 (hits served from bytes are still counted)", got)
	}
}

// TestRelayedBytesMatchReferenceEncoder: a forwarded answer is the owner's
// bytes with the fleet marks added, and equals what decoding the owner's
// answer, marking it and re-encoding it produced. The owner serves the
// forwarder's repeats from its own stored bytes, since a forward relays the
// request body unchanged.
func TestRelayedBytesMatchReferenceEncoder(t *testing.T) {
	nodes := startFleetNodes(t, 2)
	a, b := nodes[0], nodes[1]
	body := requestOwnedBy(t, a.srv, b.url)

	var answers [4][]byte
	for i := range answers {
		var status int
		if status, answers[i] = postRaw(t, a.ts.URL+"/v1/solve", body); status != http.StatusOK {
			t.Fatalf("forwarded request %d: %d %s", i, status, answers[i])
		}
		resp := wantReferenceBytes(t, fmt.Sprintf("forwarded request %d", i), answers[i])
		if !resp.FleetForwarded || resp.FleetOwner != b.url || resp.FleetFallback || resp.Cached != (i >= 1) {
			t.Fatalf("forwarded request %d: forwarded=%v owner=%q fallback=%v cached=%v", i, resp.FleetForwarded, resp.FleetOwner, resp.FleetFallback, resp.Cached)
		}
		if got := a.srv.fleet.Stats().Forwards; got != int64(i+1) {
			t.Fatalf("forwarder counted %d forwards after %d requests", got, i+1)
		}
	}
	for i := 2; i < len(answers); i++ {
		if got, want := sansTotalNs(t, answers[i]), sansTotalNs(t, answers[1]); got != want {
			t.Fatalf("forwarded repeat %d differs from its predecessor:\ngot:\n%s\nwant:\n%s", i, got, want)
		}
	}
	if ent, ok := memoEntryOf(b.srv, body); !ok || ent.from == nil {
		t.Fatalf("owner's memo after four forwards: known=%v stored bytes=%v, want both", ok, ent.from != nil)
	}
	if ent, ok := memoEntryOf(a.srv, body); !ok || ent.from != nil {
		t.Fatalf("forwarder's memo: known=%v stored bytes=%v, want the fingerprint only", ok, ent.from != nil)
	}
	if st := a.pl.Stats(); st.Solves != 0 || st.ResultHits != 0 || st.ResultMisses != 0 {
		t.Fatalf("forwarder's planner %+v, want it untouched", st)
	}
	// The owner's own answer is the relayed one without the marks.
	status, own := postRaw(t, b.ts.URL+"/v1/solve", body)
	if status != http.StatusOK {
		t.Fatalf("owner-local: %d %s", status, own)
	}
	marks := fmt.Sprintf(",\n  \"fleet_forwarded\": true,\n  \"fleet_owner\": %q\n}\n", b.url)
	if got, want := sansTotalNs(t, answers[3]), strings.TrimSuffix(sansTotalNs(t, own), "\n}\n")+marks; got != want {
		t.Fatalf("relayed answer is not the owner's plus the marks:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRelayUnusableOwnerAnswerFallsBack: a 200 from the owner that is not
// valid JSON, carries no strategy document, or is not laid out as the wire's
// encoder lays it out is never relayed: the forwarder solves locally, once.
// So is a non-200 without an "error": a 404 from something that is not a
// pased. A structured rejection is the owner's answer: it is re-served under
// the owner's status and code, and nothing is solved here.
func TestRelayUnusableOwnerAnswerFallsBack(t *testing.T) {
	var status int
	var answer string
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		io.WriteString(w, answer)
	}))
	defer peer.Close()
	pl := pase.NewPlanner(pase.PlannerConfig{})
	sv := newServer(pl, 64, 0)
	fc, err := fleet.New(fleet.Config{Self: "http://self.invalid:1", Peers: []string{peer.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	sv.fleet = fc
	ts := httptest.NewServer(sv.mux())
	defer ts.Close()
	body := requestOwnedBy(t, sv, peer.URL)

	solves := int64(0)
	for _, tc := range []struct {
		name, answer string
		status       int
		fallback     bool
	}{
		{"truncated", "{\n  \"strategy\": {\n    \"model\": \"Alex", http.StatusOK, true},
		{"no strategy", "{\n  \"strategy\": null,\n  \"method\": \"dp\"\n}\n", http.StatusOK, true},
		{"strategy of the wrong type", "{\n  \"strategy\": \"dp\",\n  \"method\": \"dp\"\n}\n", http.StatusOK, true},
		{"another layout", `{"strategy":{"model":"AlexNet"},"method":"dp"}`, http.StatusOK, true},
		{"strategy not first", "{\n  \"method\": \"dp\",\n  \"strategy\": {}\n}\n", http.StatusOK, true},
		{"not closed by the encoder", "{\n  \"strategy\": {}\n}", http.StatusOK, true},
		{"a rejection", `{"error":"gpus: out of range","code":"bad_request"}`, http.StatusBadRequest, false},
		{"a 404 with no error", `{"code":"not_found"}`, http.StatusNotFound, true},
	} {
		status, answer = tc.status, tc.answer
		got, out := postJSON(t, ts.URL+"/v1/solve", body)
		if tc.fallback {
			solves++
			if got != http.StatusOK || out["fleet_fallback"] != true || out["fleet_owner"] != peer.URL || out["fleet_forwarded"] == true {
				t.Fatalf("%s: %d fallback=%v owner=%v forwarded=%v, want a marked local solve", tc.name, got, out["fleet_fallback"], out["fleet_owner"], out["fleet_forwarded"])
			}
			if doc, _ := out["strategy"].(map[string]any); doc == nil || doc["layers"] == nil {
				t.Fatalf("%s: fallback answer has no strategy: %v", tc.name, out)
			}
		} else if got != tc.status || out["code"] != "bad_request" || out["error"] != "gpus: out of range" {
			t.Fatalf("%s: %d %v, want the owner's %d bad_request re-served", tc.name, got, out, tc.status)
		}
		if st := pl.Stats(); st.Solves != solves || st.FleetFallbacks != solves {
			t.Fatalf("%s: planner %+v, want %d fallback solves", tc.name, st, solves)
		}
	}
}

// TestNoStaleBytesAfterEviction: with room for one result, A's stored bytes
// must not outlive A's cache entry — after B evicts it a repeat of A is a
// fresh solve, and the bytes stored afterwards belong to the new entry.
func TestNoStaleBytesAfterEviction(t *testing.T) {
	pl := pase.NewPlanner(pase.PlannerConfig{ResultCacheSize: 1})
	s := newServer(pl, 64, 0)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	const bodyA, bodyB = `{"model":"alexnet","gpus":8}`, `{"model":"alexnet","gpus":4}`
	step := func(body string, wantCached bool, wantSolves int64) {
		t.Helper()
		status, out := postJSON(t, ts.URL+"/v1/solve", body)
		if status != http.StatusOK || out["cached"] != wantCached {
			t.Fatalf("%s: %d cached=%v, want cached=%v", body, status, out["cached"], wantCached)
		}
		if got := pl.Stats().Solves; got != wantSolves {
			t.Fatalf("%s: %d solves so far, want %d", body, got, wantSolves)
		}
	}
	step(bodyA, false, 1)
	step(bodyA, true, 1)
	step(bodyA, true, 1) // from stored bytes
	before, _ := memoEntryOf(s, bodyA)
	if before.from == nil {
		t.Fatal("no stored bytes for A after two hits")
	}
	step(bodyB, false, 2) // evicts A
	step(bodyA, false, 3) // the memo knows A, the planner no longer does
	step(bodyA, true, 3)
	step(bodyA, true, 3)
	after, _ := memoEntryOf(s, bodyA)
	if after.from == nil || after.from == before.from {
		t.Fatal("A's stored bytes still belong to the evicted entry")
	}
}

// TestNoStaleBytesAfterPressureDegrade: a pressure-degraded answer never
// enters the result cache, so it leaves no bytes behind — once pressure
// subsides the same body gets the exact strategy, then hits on it.
func TestNoStaleBytesAfterPressureDegrade(t *testing.T) {
	pl := pase.NewPlanner(pase.PlannerConfig{
		MaxInFlight:      1,
		MaxQueue:         2, // degrade from half of it: one waiter
		DegradeBeamWidth: 4,
		FaultPlan:        mustFaults(t, "solve:latency:400ms:1"),
	})
	s := newServer(pl, 64, 0)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	const body = `{"model":"alexnet","gpus":8}`

	// The blocker holds the only slot through its injected latency.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if status, out := postJSONNoFatal(ts.URL+"/v1/solve", `{"model":"rnnlm","gpus":8}`); status != http.StatusOK {
			t.Errorf("blocker: %d %v", status, out)
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); pl.Stats().InFlight != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("blocker never took the slot")
		}
	}
	status, degraded := postJSON(t, ts.URL+"/v1/solve", body)
	if status != http.StatusOK || degraded["degraded"] != true || degraded["degrade_reason"] != "pressure" {
		t.Fatalf("under pressure: %d degraded=%v reason=%v", status, degraded["degraded"], degraded["degrade_reason"])
	}
	wg.Wait()
	// A flight hands its slot back after its waiters have their answer.
	for deadline := time.Now().Add(5 * time.Second); pl.Stats().InFlight != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the gate never drained")
		}
	}

	var exact map[string]any
	for i, wantCached := range []bool{false, true, true, true} {
		status, out := postJSON(t, ts.URL+"/v1/solve", body)
		if status != http.StatusOK || out["cached"] != wantCached || out["degraded"] != false || out["exact"] != true {
			t.Fatalf("repeat %d after pressure: %d cached=%v degraded=%v exact=%v, want the exact answer (cached=%v)",
				i, status, out["cached"], out["degraded"], out["exact"], wantCached)
		}
		if _, has := out["degrade_reason"]; has {
			t.Fatalf("repeat %d still carries a degrade_reason: %v", i, out["degrade_reason"])
		}
		if i == 0 {
			exact = out
			continue
		}
		if fmt.Sprint(out["strategy"]) != fmt.Sprint(exact["strategy"]) || out["cost_seconds"] != exact["cost_seconds"] {
			t.Fatalf("repeat %d does not carry the exact solve's strategy", i)
		}
	}
}

// TestMemoHitFallsBackOnce: on a non-owner whose owner is dead, a body the
// memo already knows still routes exactly once — one fallback per request,
// and no retries beyond the first request's.
func TestMemoHitFallsBackOnce(t *testing.T) {
	// Reserve then free a port: a member that refuses connections.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()
	a := startFleetNodes(t, 1, dead)[0]
	body := requestOwnedBy(t, a.srv, dead)

	post := func() fleet.Stats {
		t.Helper()
		status, out := postJSON(t, a.ts.URL+"/v1/solve", body)
		if status != http.StatusOK || out["fleet_fallback"] != true || out["cached"] == true {
			t.Fatalf("%d fallback=%v cached=%v, want an uncached marked fallback", status, out["fleet_fallback"], out["cached"])
		}
		return a.srv.fleet.Stats()
	}
	first := post()
	if first.Fallbacks != 1 {
		t.Fatalf("first request: %+v, want 1 fallback", first)
	}
	for i := int64(2); i <= 3; i++ {
		st := post()
		if st.Fallbacks != i || st.Retries != first.Retries || st.Forwards != 0 {
			t.Fatalf("request %d: %+v, want %d fallbacks and the first request's %d retries", i, st, i, first.Retries)
		}
	}
	if hits, misses := a.srv.memo.hits.Load(), a.srv.memo.misses.Load(); hits != 2 || misses != 1 {
		t.Fatalf("memo: %d hits, %d misses, want 2 and 1", hits, misses)
	}
	if st := a.pl.Stats(); st.Solves != 3 || st.FleetFallbacks != 3 {
		t.Fatalf("planner %+v, want 3 fallback solves (never cached)", st)
	}
}

// TestOversizedBodyIs413: maxBodyBytes is the largest body any solving route
// reads; one byte more is 413 too_large before anything is hashed, remembered
// or forwarded.
func TestOversizedBodyIs413(t *testing.T) {
	nodes := startFleetNodes(t, 2)
	a := nodes[0]
	// Padding inside the object, so no prefix of the body is a whole value.
	padded := func(open, rest string, size int) string {
		return open + strings.Repeat(" ", size-len(open)-len(rest)) + rest
	}
	routes := map[string][2]string{
		"/v1/solve":             {`{"model":"alexnet",`, `"gpus":4}`},
		fleet.InternalSolvePath: {`{"model":"alexnet",`, `"gpus":4}`},
		"/v1/batch":             {`{"requests":[`, `{"model":"alexnet","gpus":4}]}`},
		"/v1/compare":           {`{"model":"alexnet",`, `"gpus":4,"methods":["dataparallel"]}`},
	}
	for route, parts := range routes {
		status, out := postJSON(t, a.ts.URL+route, padded(parts[0], parts[1], maxBodyBytes+1))
		if status != http.StatusRequestEntityTooLarge || out["code"] != "too_large" {
			t.Fatalf("%s with %d bytes: %d %v, want 413 too_large", route, maxBodyBytes+1, status, out)
		}
	}
	if n, hits, misses := a.srv.memo.len(), a.srv.memo.hits.Load(), a.srv.memo.misses.Load(); n != 0 || hits != 0 || misses != 0 {
		t.Fatalf("memo after oversized bodies: %d entries, %d hits, %d misses, want it untouched", n, hits, misses)
	}
	if fs := a.srv.fleet.Stats(); fs.Forwards != 0 || fs.Fallbacks != 0 {
		t.Fatalf("fleet after oversized bodies: %+v, want no routing", fs)
	}
	if st := a.pl.Stats(); st.Solves != 0 {
		t.Fatalf("planner ran %d solves for oversized bodies", st.Solves)
	}
	// The bound itself is accepted.
	for route, parts := range routes {
		if status, out := postJSON(t, a.ts.URL+route, padded(parts[0], parts[1], maxBodyBytes)); status != http.StatusOK {
			t.Fatalf("%s with exactly %d bytes: %d %v, want 200", route, maxBodyBytes, status, out)
		}
	}
}
