package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pase"
	"pase/internal/fleet"
)

// fleetNode is one daemon of an in-process test fleet.
type fleetNode struct {
	pl  *pase.Planner
	srv *server
	ts  *httptest.Server
	url string
}

// startFleetNodes boots n daemons that know each other (plus any
// extraMembers — dead URLs for outage tests). Listeners are bound before any
// fleet client exists so every member URL is known up front, and each
// server's fleet field is set before its listener serves — no post-start
// mutation, no race. Probing is off, so a test decides when a peer heals.
func startFleetNodes(t *testing.T, n int, extraMembers ...string) []*fleetNode {
	t.Helper()
	return startTunedFleetNodes(t, n, nil, extraMembers...)
}

// startTunedFleetNodes is startFleetNodes with node i's planner and fleet
// configuration passed through tune (when non-nil) before the node starts.
func startTunedFleetNodes(t *testing.T, n int, tune func(i int, pc *pase.PlannerConfig, fc *fleet.Config), extraMembers ...string) []*fleetNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		peers = append(peers, extraMembers...)
		pc := pase.PlannerConfig{}
		fcfg := fleet.Config{
			Self:           urls[i],
			Peers:          peers,
			ProbeInterval:  -1,
			AttemptTimeout: 10 * time.Second,
		}
		if tune != nil {
			tune(i, &pc, &fcfg)
		}
		pl := pase.NewPlanner(pc)
		sv := newServer(pl, 64, 0)
		fc, err := fleet.New(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		sv.fleet = fc
		ts := &httptest.Server{Listener: listeners[i], Config: &http.Server{Handler: sv.mux()}}
		ts.Start()
		t.Cleanup(func() { ts.Close(); fc.Close() })
		nodes[i] = &fleetNode{pl: pl, srv: sv, ts: ts, url: urls[i]}
	}
	return nodes
}

// requestWhere finds a wire request that pred accepts, given the request and
// its canonical fingerprint — a pure computation (no solves), over a
// candidate family small enough to solve fast in tests.
func requestWhere(t *testing.T, s *server, pred func(sr solveRequest, fp pase.Fingerprint) bool) string {
	t.Helper()
	for _, g := range []int{2, 3, 4, 5, 6, 8, 12, 16} {
		for _, b := range []int64{0, 32, 48, 64, 80, 96, 112, 128, 144, 160} {
			sr := solveRequest{Model: "alexnet", GPUs: g, Batch: b}
			req, _, err := s.toRequest(sr)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := s.pl.Prepare(req)
			if err != nil {
				t.Fatal(err)
			}
			fp := prep.Fingerprint()
			if pred(sr, fp) {
				if b == 0 {
					return fmt.Sprintf(`{"model":"alexnet","gpus":%d}`, g)
				}
				return fmt.Sprintf(`{"model":"alexnet","gpus":%d,"batch":%d}`, g, b)
			}
		}
	}
	t.Fatal("no candidate request satisfies the predicate")
	return ""
}

// requestOwnedBy finds a wire request whose canonical fingerprint the given
// member owns on s's ring.
func requestOwnedBy(t *testing.T, s *server, owner string) string {
	t.Helper()
	return requestWhere(t, s, func(_ solveRequest, fp pase.Fingerprint) bool { return s.fleet.Owner(fp) == owner })
}

// TestFleetForwardedSolve is the tentpole's happy path over the wire: a
// request whose fingerprint another member owns is forwarded there, the
// owner's cache becomes the cluster's (a repeat from ANY member is a cache
// hit), and the routing is visible in the response, /v1/readyz, /v1/stats,
// and /metrics.
func TestFleetForwardedSolve(t *testing.T) {
	nodes := startFleetNodes(t, 3)
	a := nodes[0]
	body := requestOwnedBy(t, a.srv, nodes[1].url)
	owner := nodes[1]

	status, out := postJSON(t, a.ts.URL+"/v1/solve", body)
	if status != http.StatusOK {
		t.Fatalf("forwarded solve: %d %v", status, out)
	}
	if out["fleet_forwarded"] != true || out["fleet_owner"] != owner.url {
		t.Fatalf("response routing: forwarded=%v owner=%v, want true/%s",
			out["fleet_forwarded"], out["fleet_owner"], owner.url)
	}
	if out["cached"] == true {
		t.Fatalf("first solve cached: %v", out["cached"])
	}
	if s := owner.pl.Stats(); s.Solves != 1 {
		t.Fatalf("owner solves = %d, want 1", s.Solves)
	}
	if s := a.pl.Stats(); s.Solves != 0 {
		t.Fatalf("forwarder solves = %d, want 0 (the owner ran it)", s.Solves)
	}
	if fs := a.srv.fleet.Stats(); fs.Forwards != 1 {
		t.Fatalf("forwarder fleet stats %+v, want 1 forward", fs)
	}

	// Cluster-wide singleflight/cache: repeats from the forwarder AND from a
	// third member are cache hits served by the same owner.
	for _, from := range []*fleetNode{a, nodes[2]} {
		status, out = postJSON(t, from.ts.URL+"/v1/solve", body)
		if status != http.StatusOK || out["fleet_forwarded"] != true || out["cached"] != true {
			t.Fatalf("repeat via %s: %d forwarded=%v cached=%v, want a forwarded cache hit",
				from.url, status, out["fleet_forwarded"], out["cached"])
		}
	}
	if s := owner.pl.Stats(); s.Solves != 1 {
		t.Fatalf("owner solves = %d after repeats, want still 1", s.Solves)
	}

	// The owner itself serves the request locally — no self-forward.
	status, out = postJSON(t, owner.ts.URL+"/v1/solve", body)
	if status != http.StatusOK || out["fleet_forwarded"] == true || out["cached"] != true {
		t.Fatalf("owner-local solve: %d %v, want an unforwarded cache hit", status, out)
	}

	// Readiness carries the peer table.
	_, rz := getJSON(t, a.ts.URL+"/v1/readyz")
	peers, _ := rz["peers"].([]any)
	if len(peers) != 2 {
		t.Fatalf("readyz peers = %v, want 2 entries", rz["peers"])
	}
	for _, p := range peers {
		pm := p.(map[string]any)
		if pm["healthy"] != true || pm["breaker"] != "closed" {
			t.Fatalf("readyz peer %v, want healthy/closed", pm)
		}
	}

	// Stats and metrics surface the fleet counters.
	_, st := getJSON(t, a.ts.URL+"/v1/stats")
	fst, _ := st["fleet"].(map[string]any)
	if fst == nil || fst["forwards"].(float64) < 2 {
		t.Fatalf("stats fleet block %v, want >= 2 forwards", st["fleet"])
	}
	resp, err := http.Get(a.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"pase_fleet_forwards_total 2",
		fmt.Sprintf("pase_fleet_peer_healthy{peer=%q} 1", owner.url),
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestFleetSlowForwardJoinsTheOwnersFlight: a forwarded solve that outlives
// one forward attempt keeps running on its owner after the attempt hangs up,
// so the retry joins the running flight instead of starting over. The asker
// relays the owner's answer, the owner solves once and caches it, and a
// repeat is a forwarded cache hit.
func TestFleetSlowForwardJoinsTheOwnersFlight(t *testing.T) {
	nodes := startTunedFleetNodes(t, 2, func(i int, pc *pase.PlannerConfig, fc *fleet.Config) {
		fc.AttemptTimeout = 200 * time.Millisecond
		if i == 1 {
			pc.FaultPlan = mustFaults(t, "solve:latency:500ms")
		}
	})
	a, owner := nodes[0], nodes[1]
	body := requestOwnedBy(t, a.srv, owner.url)

	status, out := postJSON(t, a.ts.URL+"/v1/solve", body)
	if status != http.StatusOK || out["fleet_forwarded"] != true || out["fleet_fallback"] == true {
		t.Fatalf("slow forward: %d forwarded=%v fallback=%v, want the owner's answer relayed",
			status, out["fleet_forwarded"], out["fleet_fallback"])
	}
	if s := owner.pl.Stats(); s.Solves != 1 || s.Cancelled != 0 {
		t.Fatalf("owner planner %+v, want 1 solve and no cancellation", s)
	}
	if s := a.pl.Stats(); s.Solves != 0 {
		t.Fatalf("asker solves = %d, want 0 (the owner ran it)", s.Solves)
	}
	status, out = postJSON(t, a.ts.URL+"/v1/solve", body)
	if status != http.StatusOK || out["fleet_forwarded"] != true || out["cached"] != true {
		t.Fatalf("repeat: %d forwarded=%v cached=%v, want a forwarded cache hit",
			status, out["fleet_forwarded"], out["cached"])
	}
	if s := owner.pl.Stats(); s.Solves != 1 {
		t.Fatalf("owner solves = %d after the repeat, want still 1", s.Solves)
	}
}

// TestFleetInternalRouteNeverReforwards: a request arriving on the internal
// route is solved where it lands even when the local ring says another
// member owns it — the invariant that makes forwarding loop-free.
func TestFleetInternalRouteNeverReforwards(t *testing.T) {
	nodes := startFleetNodes(t, 3)
	a := nodes[0]
	// Owned by node 1, but delivered straight to node 0's internal route.
	body := requestOwnedBy(t, a.srv, nodes[1].url)

	status, out := postJSON(t, a.ts.URL+fleet.InternalSolvePath, body)
	if status != http.StatusOK {
		t.Fatalf("internal solve: %d %v", status, out)
	}
	if out["fleet_forwarded"] == true || out["fleet_fallback"] == true {
		t.Fatalf("internal route forwarded or fell back: %v", out)
	}
	if s := a.pl.Stats(); s.Solves != 1 {
		t.Fatalf("receiver solves = %d, want 1 (solved where it landed)", s.Solves)
	}
	if s := nodes[1].pl.Stats(); s.Solves != 0 {
		t.Fatalf("ring owner solves = %d, want 0 (no re-forward)", s.Solves)
	}
	if fs := a.srv.fleet.Stats(); fs.Forwards != 0 || fs.Fallbacks != 0 {
		t.Fatalf("receiver fleet stats %+v, want no routing at all", fs)
	}
}

// TestFleetFallbackWhenOwnerDead is the acceptance outage: the owner is a
// dead member (SIGKILL shape: connection refused), yet every request answers
// 200 — solved locally, marked fleet_fallback, and never cached, so the
// healed owner stays the fingerprint's home.
func TestFleetFallbackWhenOwnerDead(t *testing.T) {
	// Reserve then free a port: a member that refuses connections.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()

	nodes := startFleetNodes(t, 1, dead)
	a := nodes[0]
	body := requestOwnedBy(t, a.srv, dead)

	status, out := postJSON(t, a.ts.URL+"/v1/solve", body)
	if status != http.StatusOK {
		t.Fatalf("fallback solve: %d %v (peer death must not be client-visible)", status, out)
	}
	if out["fleet_fallback"] != true || out["fleet_owner"] != dead {
		t.Fatalf("response: fallback=%v owner=%v, want true/%s", out["fleet_fallback"], out["fleet_owner"], dead)
	}
	if s := a.pl.Stats(); s.FleetFallbacks != 1 || s.Solves != 1 {
		t.Fatalf("planner stats %+v, want 1 fallback solve", s)
	}

	// Repeat: the failed forward took the owner out of the live ring, so
	// there is no retry storm at a corpse; still 200, and the fallback left
	// no cache entry behind.
	status, out = postJSON(t, a.ts.URL+"/v1/solve", body)
	if status != http.StatusOK || out["fleet_fallback"] != true {
		t.Fatalf("repeat during outage: %d %v, want another marked fallback", status, out)
	}
	if out["cached"] == true {
		t.Fatal("fallback result was cached; the owner must stay the fingerprint's only home")
	}
	fs := a.srv.fleet.Stats()
	if fs.Fallbacks != 2 {
		t.Fatalf("fleet stats %+v, want 2 fallbacks", fs)
	}
	if fs.Peers[0].Healthy || fs.Peers[0].Breaker != "open" {
		t.Fatalf("dead peer %+v, want unhealthy, breaker open", fs.Peers[0])
	}
	_, rz := getJSON(t, a.ts.URL+"/v1/readyz")
	peers, _ := rz["peers"].([]any)
	if len(peers) != 1 || peers[0].(map[string]any)["healthy"] != false || peers[0].(map[string]any)["breaker"] != "open" {
		t.Fatalf("readyz peers %v, want the dead member unhealthy, breaker open", rz["peers"])
	}
}

// TestRouteParity: a request takes one route through the daemon whichever
// endpoint carried it, so every routing case must answer a one-item /v1/batch
// exactly as it answers /v1/solve — and a mixed batch of all of them must
// answer each item the same way again.
func TestRouteParity(t *testing.T) {
	// A member that refuses connections: reserve then free a port.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()

	nodes := startFleetNodes(t, 2, dead)
	a, b := nodes[0], nodes[1]
	// The owner rejects what the forwarder accepts: b serves at most 8 GPUs.
	b.srv.maxGPUs = 8
	// Every case gets a request of its own: the mixed batch holds them all.
	used := map[pase.Fingerprint]bool{}
	ownedBy := func(owner string, fits func(gpus int) bool) string {
		return requestWhere(t, a.srv, func(sr solveRequest, fp pase.Fingerprint) bool {
			ok := !used[fp] && a.srv.fleet.Owner(fp) == owner && fits(sr.GPUs)
			used[fp] = used[fp] || ok
			return ok
		})
	}
	small := func(gpus int) bool { return gpus <= 8 }
	// With the dead member out of the live ring a stand-in is elected;
	// only a request a stands in for falls back here on every send.
	deadOwned := requestWhere(t, a.srv, func(_ solveRequest, fp pase.Fingerprint) bool {
		return a.srv.fleet.Owner(fp) == dead && fleet.RendezvousOwner([]string{a.url, b.url}, fp) == a.url
	})
	brokenSpec := specBody(strings.Replace(tinySpec, `"flops_per_point": 2`, `"flops_per_point": -2`, 1))

	cases := []struct {
		name string
		body string
		// warm solves the request on a's internal route first, so a answers
		// it from its own cache whoever owns it.
		warm       bool
		wantStatus int
		// want are the routing fields of the answer; absent means unset.
		want map[string]any
		// wantSolves are a's and b's underlying solves, warm-up included.
		wantSolves [2]int64
	}{
		{name: "owned locally", body: ownedBy(a.url, small), wantStatus: 200,
			want: map[string]any{"cached": false}, wantSolves: [2]int64{1, 0}},
		{name: "forwarded", body: ownedBy(b.url, small), wantStatus: 200,
			want: map[string]any{"cached": false, "fleet_forwarded": true, "fleet_owner": b.url}, wantSolves: [2]int64{0, 1}},
		{name: "owner dead", body: deadOwned, wantStatus: 200,
			want: map[string]any{"cached": false, "fleet_fallback": true, "fleet_owner": dead}, wantSolves: [2]int64{1, 0}},
		{name: "local hit", body: ownedBy(b.url, small), warm: true, wantStatus: 200,
			want: map[string]any{"cached": true}, wantSolves: [2]int64{1, 0}},
		{name: "malformed inline spec", body: brokenSpec, wantStatus: 400},
		{name: "owner answers non-200", body: ownedBy(b.url, func(gpus int) bool { return gpus > 8 }), wantStatus: 400},
	}

	// Each send meets fresh planners, so one send's cache entries cannot
	// turn the next one's answer into a hit. Fleet state carries over.
	fresh := func() {
		for _, n := range nodes {
			n.pl = pase.NewPlanner(pase.PlannerConfig{})
			n.srv.pl = n.pl
		}
	}
	warmUp := func(body string) {
		t.Helper()
		if status, out := postJSON(t, a.ts.URL+fleet.InternalSolvePath, body); status != http.StatusOK {
			t.Fatalf("warm-up: %d %v", status, out)
		}
	}
	// Timings differ run to run; "code" has only ever been on the /v1/solve
	// error body. Every other field must match.
	comparable := func(m map[string]any) map[string]any {
		for _, k := range []string{"timings", "code"} {
			delete(m, k)
		}
		return m
	}
	batchOf := func(bodies ...string) []any {
		t.Helper()
		status, out := postJSON(t, a.ts.URL+"/v1/batch", `{"requests":[`+strings.Join(bodies, ",")+`]}`)
		results, _ := out["results"].([]any)
		if status != http.StatusOK || len(results) != len(bodies) {
			t.Fatalf("batch: %d %v", status, out)
		}
		return results
	}

	solved := make([]map[string]any, len(cases))
	for i, tc := range cases {
		fresh()
		if tc.warm {
			warmUp(tc.body)
		}
		status, viaSolve := postJSON(t, a.ts.URL+"/v1/solve", tc.body)
		if status != tc.wantStatus {
			t.Fatalf("%s: /v1/solve status %d, want %d: %v", tc.name, status, tc.wantStatus, viaSolve)
		}
		for _, k := range []string{"cached", "fleet_forwarded", "fleet_fallback", "fleet_owner"} {
			if viaSolve[k] != tc.want[k] {
				t.Fatalf("%s: /v1/solve %s = %v, want %v", tc.name, k, viaSolve[k], tc.want[k])
			}
		}
		if (viaSolve["error"] != nil) != (status != http.StatusOK) {
			t.Fatalf("%s: status %d with error %v", tc.name, status, viaSolve["error"])
		}
		solved[i] = comparable(viaSolve)

		fresh()
		if tc.warm {
			warmUp(tc.body)
		}
		viaBatch := comparable(batchOf(tc.body)[0].(map[string]any))
		if !reflect.DeepEqual(viaBatch, solved[i]) {
			t.Fatalf("%s: batch entry differs from the /v1/solve body:\nbatch: %v\nsolve: %v", tc.name, viaBatch, solved[i])
		}
		if got := [2]int64{a.pl.Stats().Solves, b.pl.Stats().Solves}; got != tc.wantSolves {
			t.Fatalf("%s: batch route ran %v solves on (a, b), want %v", tc.name, got, tc.wantSolves)
		}
	}

	// One mixed-ownership batch of every case. Its items share planners, so
	// per-solve provenance such as delta_resolve legitimately differs from a
	// lone solve's; the answer and its routing may not.
	fresh()
	var bodies []string
	for _, tc := range cases {
		if tc.warm {
			warmUp(tc.body)
		}
		bodies = append(bodies, tc.body)
	}
	for i, entry := range batchOf(bodies...) {
		entry := entry.(map[string]any)
		for _, k := range []string{"error", "details", "fingerprint", "cost_seconds", "cached", "fleet_forwarded", "fleet_fallback", "fleet_owner"} {
			if !reflect.DeepEqual(entry[k], solved[i][k]) {
				t.Fatalf("%s in the mixed batch: %s = %v, want %v", cases[i].name, k, entry[k], solved[i][k])
			}
		}
	}
}

// TestBatchBoundsPeerCalls: a batch runs its items on a fixed pool, so however
// many of them another member owns, at most GOMAXPROCS peer calls are in
// flight at once.
func TestBatchBoundsPeerCalls(t *testing.T) {
	var inFlight, peak, calls atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != fleet.InternalSolvePath {
			http.NotFound(w, r)
			return
		}
		calls.Add(1)
		n := inFlight.Add(1)
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		// Hold the call open so unbounded callers would overlap.
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		badRequest(errors.New("stub peer solves nothing")).write(w)
	}))
	defer peer.Close()

	sv := newServer(pase.NewPlanner(pase.PlannerConfig{}), 64, 0)
	fc, err := fleet.New(fleet.Config{Self: "http://self.invalid:1", Peers: []string{peer.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	sv.fleet = fc
	ts := httptest.NewServer(sv.mux())
	defer ts.Close()

	// 500 distinct fingerprints, each microseconds to answer locally.
	const items = 500
	reqs := make([]string, items)
	for i := range reqs {
		reqs[i] = fmt.Sprintf(`{"model":"alexnet","gpus":4,"batch":%d,"options":{"method":"dataparallel"}}`, 8*(i+1))
	}
	status, out := postJSON(t, ts.URL+"/v1/batch", `{"requests":[`+strings.Join(reqs, ",")+`]}`)
	results, _ := out["results"].([]any)
	if status != http.StatusOK || len(results) != items {
		t.Fatalf("batch: %d, %d results", status, len(results))
	}
	if calls.Load() < items/4 {
		t.Fatalf("only %d of %d items reached the peer; the ring should give it about half", calls.Load(), items)
	}
	if pool := int64(runtime.GOMAXPROCS(0)); peak.Load() > pool {
		t.Fatalf("peak concurrent peer calls = %d, want <= %d (the batch pool)", peak.Load(), pool)
	}
}
