package fleet

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pase/internal/canon"
	"pase/internal/pressure"
)

// testSelf is this client's ring identity in tests; it is never dialed.
const testSelf = "http://self.test:1"

func mustFaults(t *testing.T, spec string) *pressure.FaultPlan {
	t.Helper()
	p, err := pressure.ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newTestClient builds a prober-less client, so a test decides when a peer
// is probed and nothing heals behind its back.
func newTestClient(t *testing.T, peers []string, mut func(*Config)) *Client {
	t.Helper()
	cfg := Config{
		Self:           testSelf,
		Peers:          peers,
		ProbeInterval:  -1,
		AttemptTimeout: 5 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// peerServer is a fake fleet member: it answers the internal solve route
// with a canned body, counts the forwarded requests it saw, and reports
// ready on the probe route.
func peerServer(t *testing.T, body string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == readyzPath {
			return
		}
		if r.URL.Path != InternalSolvePath {
			http.NotFound(w, r)
			return
		}
		if r.Header.Get(ForwardedHeader) == "" {
			t.Errorf("forwarded request missing %s header", ForwardedHeader)
		}
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

// ownedBy finds a fingerprint the given member owns on c's full ring.
func ownedBy(t *testing.T, c *Client, member string) canon.Fingerprint {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if fp := fpN(i); c.Owner(fp) == member {
			return fp
		}
	}
	t.Fatalf("no fingerprint owned by %s in 10000 tries", member)
	return canon.Fingerprint{}
}

func TestNewValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Self: "", Peers: []string{"http://a:1"}},
		{Self: "ftp://a:1", Peers: []string{"http://b:1"}},
		{Self: "http://a:1/path", Peers: []string{"http://b:1"}},
		{Self: "http://a:1", Peers: []string{"not a url\x7f"}},
		{Self: "http://a:1", Peers: []string{"http://a:1"}}, // peer == self
		{Self: "http://a:1", Peers: nil},                    // no peers
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v): want error", cfg)
		}
	}
	// Trailing slashes and duplicates normalize away.
	c, err := New(Config{Self: "http://a:1/", Peers: []string{"http://b:1/", "http://b:1"}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Members(); len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:1" {
		t.Fatalf("members = %v", got)
	}
}

func TestRouteLocalForOwnedFingerprint(t *testing.T) {
	c := newTestClient(t, []string{"http://peer.test:1"}, nil)
	fp := ownedBy(t, c, testSelf)
	out := c.Route(context.Background(), fp, []byte("{}"))
	if out.Decision != Local || out.Owner != testSelf {
		t.Fatalf("self-owned fingerprint routed %v owner %q", out.Decision, out.Owner)
	}
}

func TestForwardSuccess(t *testing.T) {
	ts, hits := peerServer(t, `{"ok":true}`)
	c := newTestClient(t, []string{ts.URL}, nil)
	fp := ownedBy(t, c, ts.URL)
	out := c.Route(context.Background(), fp, []byte(`{"model":"alexnet"}`))
	if out.Decision != Forwarded || out.Owner != ts.URL || out.Status != http.StatusOK {
		t.Fatalf("outcome %+v, want forwarded 200 from %s", out, ts.URL)
	}
	if got := string(out.Body); got != `{"ok":true}` {
		t.Fatalf("relayed body %q", got)
	}
	if hits.Load() != 1 {
		t.Fatalf("peer saw %d requests, want 1", hits.Load())
	}
	st := c.Stats()
	if st.Forwards != 1 || st.Retries != 0 || st.Fallbacks != 0 {
		t.Fatalf("stats %+v", st)
	}
	if !st.Peers[0].Healthy {
		t.Fatalf("peer %+v unhealthy after a success", st.Peers[0])
	}
}

// TestForwardBodyRead: an answer of declared length is read with room to
// append marks naming the owner without copying it; a chunked one, whose
// length is not declared, is read whole too.
func TestForwardBodyRead(t *testing.T) {
	const answer = `{"ok":true}`
	for _, chunked := range []bool{false, true} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, answer[:4])
			if chunked {
				w.(http.Flusher).Flush() // headers go out before the length is known
			}
			io.WriteString(w, answer[4:])
		}))
		c := newTestClient(t, []string{ts.URL}, nil)
		out := c.Route(context.Background(), ownedBy(t, c, ts.URL), []byte(`{}`))
		ts.Close()
		if out.Decision != Forwarded || string(out.Body) != answer {
			t.Fatalf("chunked=%v: outcome %v body %q, want the answer forwarded", chunked, out.Decision, out.Body)
		}
		if room := cap(out.Body) - len(out.Body); !chunked && room < relaySpare+len(ts.URL) {
			t.Fatalf("declared length: %d bytes of room after the body, want at least %d", room, relaySpare+len(ts.URL))
		}
	}
}

// TestForwardRetryThenSuccess: one injected failure, then the retry lands —
// the jittered-backoff loop is doing its job.
func TestForwardRetryThenSuccess(t *testing.T) {
	ts, hits := peerServer(t, `{"ok":true}`)
	c := newTestClient(t, []string{ts.URL}, func(cfg *Config) {
		cfg.Faults = mustFaults(t, "peer:error:1")
	})
	fp := ownedBy(t, c, ts.URL)
	out := c.Route(context.Background(), fp, []byte("{}"))
	if out.Decision != Forwarded {
		t.Fatalf("outcome %+v, want forwarded on the retry", out)
	}
	if hits.Load() != 1 {
		t.Fatalf("peer saw %d requests, want 1 (first attempt died before the wire)", hits.Load())
	}
	st := c.Stats()
	if st.Retries != 1 || st.Forwards != 1 {
		t.Fatalf("stats %+v, want exactly one retry then success", st)
	}
	if !st.Peers[0].Healthy || st.Peers[0].Failures != 1 {
		t.Fatalf("peer stats %+v", st.Peers[0])
	}
}

// TestRetryExhaustionFallsBackAndOpensBreaker is the core failure contract:
// a peer that fails every attempt costs retries once and leaves the live
// ring (its breaker reads open), and every verdict is Fallback — never an
// error.
func TestRetryExhaustionFallsBackAndOpensBreaker(t *testing.T) {
	ts, hits := peerServer(t, `{"ok":true}`)
	c := newTestClient(t, []string{ts.URL}, func(cfg *Config) {
		cfg.Faults = mustFaults(t, "peer:error")
	})
	fp := ownedBy(t, c, ts.URL)
	out := c.Route(context.Background(), fp, []byte("{}"))
	if out.Decision != Fallback || out.Owner != ts.URL {
		t.Fatalf("outcome %+v, want fallback for owner %s", out, ts.URL)
	}
	if !errors.Is(out.Err, pressure.ErrInjected) {
		t.Fatalf("fallback error %v, want the injected failure", out.Err)
	}
	st := c.Stats()
	if st.Retries != 2 || st.ForwardFailures != 1 || st.Fallbacks != 1 {
		t.Fatalf("stats %+v, want 3 attempts -> 2 retries, 1 forward failure", st)
	}
	if p := st.Peers[0]; p.Healthy || p.Breaker != "open" || p.Failures != 3 {
		t.Fatalf("peer stats %+v, want unhealthy (breaker open) after 3 failed attempts", p)
	}
	// Second request: the peer is out of the live ring, so the fallback is
	// immediate — no attempts, no new peer failures.
	out = c.Route(context.Background(), fp, []byte("{}"))
	if out.Decision != Fallback {
		t.Fatalf("outcome %+v, want immediate fallback with the peer unhealthy", out)
	}
	st = c.Stats()
	if st.Fallbacks != 2 || st.Peers[0].Failures != 3 || st.Retries != 2 {
		t.Fatalf("stats %+v, want the fallback without attempts", st)
	}
	if hits.Load() != 0 {
		t.Fatalf("peer saw %d requests, want 0", hits.Load())
	}
}

// TestBreakerProberReset: a peer taken out by an exhausted forward stays out
// until one good probe sets its health bit (breaker closed) again.
func TestBreakerProberReset(t *testing.T) {
	ts, hits := peerServer(t, `{"ok":true}`)
	c := newTestClient(t, []string{ts.URL}, func(cfg *Config) {
		cfg.Faults = mustFaults(t, "peer:error:3")
	})
	fp := ownedBy(t, c, ts.URL)
	if out := c.Route(context.Background(), fp, []byte("{}")); out.Decision != Fallback {
		t.Fatalf("outcome %+v, want fallback after 3 failed attempts", out)
	}
	if p := c.Stats().Peers[0]; p.Healthy || p.Breaker != "open" {
		t.Fatalf("peer stats %+v, want unhealthy before the probe", p)
	}
	// One good probe: the faults are spent, so forwards resume.
	c.probe(c.peers[ts.URL])
	if p := c.Stats().Peers[0]; !p.Healthy || p.Breaker != "closed" {
		t.Fatalf("peer stats %+v, want healthy (breaker closed) after the probe", p)
	}
	out := c.Route(context.Background(), fp, []byte("{}"))
	if out.Decision != Forwarded || hits.Load() != 1 {
		t.Fatalf("outcome %+v with %d peer requests, want a forward after the probe", out, hits.Load())
	}
}

// TestShedPeerStaysHealthy: a 429 falls back at once without retries, and
// the peer stays in the live ring — it is alive, just loaded.
func TestShedPeerStaysHealthy(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	t.Cleanup(ts.Close)
	c := newTestClient(t, []string{ts.URL}, nil)
	fp := ownedBy(t, c, ts.URL)
	for i := int64(1); i <= 2; i++ {
		if out := c.Route(context.Background(), fp, []byte("{}")); out.Decision != Fallback || out.Err == nil {
			t.Fatalf("request %d: outcome %+v, want fallback with the 429", i, out)
		}
		if hits.Load() != i {
			t.Fatalf("request %d: peer saw %d requests, want %d (one per request, no retry)", i, hits.Load(), i)
		}
	}
	st := c.Stats()
	if st.Retries != 0 || !st.Peers[0].Healthy || st.Peers[0].Failures != 0 {
		t.Fatalf("stats %+v, want no retries and a healthy peer", st)
	}
}

func TestPeerDropAndLatencyKinds(t *testing.T) {
	ts, _ := peerServer(t, `{"ok":true}`)
	c := newTestClient(t, []string{ts.URL}, func(cfg *Config) {
		cfg.Faults = mustFaults(t, "peer:drop:1,peer:latency:5ms:1")
	})
	fp := ownedBy(t, c, ts.URL)
	start := time.Now()
	out := c.Route(context.Background(), fp, []byte("{}"))
	if out.Decision != Forwarded {
		t.Fatalf("outcome %+v, want forwarded after the drop retries", out)
	}
	// The latency fault armed the surviving attempt, so the call took at
	// least its delay.
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("elapsed %v, want the injected 5ms latency", elapsed)
	}
}

func TestDeadPeerConnectionRefusedFallsBack(t *testing.T) {
	// Reserve a port, then free it: the URL points at a dead peer that
	// refuses connections immediately — the SIGKILL shape.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()
	c := newTestClient(t, []string{dead}, nil)
	fp := ownedBy(t, c, dead)
	start := time.Now()
	out := c.Route(context.Background(), fp, []byte("{}"))
	if out.Decision != Fallback || out.Err == nil {
		t.Fatalf("outcome %+v, want fallback with a transport error", out)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fallback took %v; connection-refused retries must be fast", elapsed)
	}
	if p := c.Stats().Peers[0]; p.Healthy {
		t.Fatalf("peer %+v healthy after a dead peer's forward", p)
	}
}

// TestRerouteToLiveStandIn: with the owner out of the live ring, the
// remaining live members elect a stand-in and the forward goes there, so the
// cluster still dedupes the solve during the outage.
func TestRerouteToLiveStandIn(t *testing.T) {
	ts, hits := peerServer(t, `{"ok":true}`)
	sick := "http://sick.test:1"
	c := newTestClient(t, []string{ts.URL, sick}, nil)
	c.peers[sick].healthy.Store(false)
	// A fingerprint owned by the sick peer whose live-ring stand-in is the
	// healthy peer (not self).
	var fp canon.Fingerprint
	found := false
	for i := 0; i < 10000 && !found; i++ {
		fp = fpN(i)
		if c.Owner(fp) == sick && RendezvousOwner([]string{testSelf, ts.URL}, fp) == ts.URL {
			found = true
		}
	}
	if !found {
		t.Fatal("no fingerprint with owner=sick, stand-in=healthy in 10000 tries")
	}
	out := c.Route(context.Background(), fp, []byte("{}"))
	if out.Decision != Forwarded || out.Owner != ts.URL {
		t.Fatalf("outcome %+v, want forward to the stand-in %s", out, ts.URL)
	}
	if hits.Load() != 1 {
		t.Fatalf("stand-in saw %d requests, want 1", hits.Load())
	}
	if st := c.Stats(); st.Reroutes != 1 {
		t.Fatalf("stats %+v, want 1 reroute", st)
	}
}

// TestProberMarksUnhealthyAndHeals drives the full partition/re-join cycle
// through the background prober: ready peer -> forwards; peer reports 503 ->
// out of the ring, fallback; peer ready again -> forwards resume.
func TestProberMarksUnhealthyAndHeals(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/v1/readyz"):
			if ready.Load() {
				w.WriteHeader(http.StatusOK)
			} else {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
		case r.URL.Path == InternalSolvePath:
			w.Write([]byte(`{"ok":true}`))
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	c := newTestClient(t, []string{ts.URL}, func(cfg *Config) {
		cfg.ProbeInterval = 10 * time.Millisecond
	})
	c.Start()
	fp := ownedBy(t, c, ts.URL)
	waitPeer := func(wantHealthy bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			p := c.Stats().Peers[0]
			if p.Healthy == wantHealthy {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("peer never reached healthy=%v: %+v", wantHealthy, p)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitPeer(true)
	if out := c.Route(context.Background(), fp, []byte("{}")); out.Decision != Forwarded {
		t.Fatalf("outcome %+v, want forwarded while healthy", out)
	}

	ready.Store(false)
	waitPeer(false)
	if out := c.Route(context.Background(), fp, []byte("{}")); out.Decision != Fallback {
		t.Fatalf("outcome %+v, want fallback while the peer reports unready", out)
	}

	ready.Store(true)
	waitPeer(true)
	if out := c.Route(context.Background(), fp, []byte("{}")); out.Decision != Forwarded {
		t.Fatalf("outcome %+v, want forwards to resume after the ring heals", out)
	}
}

// TestForwardBudgetLeavesTimeForFallback: a slow peer must not consume the
// caller's whole deadline — the forward gets at most half the remaining
// budget so the local fallback solve still has time.
func TestForwardBudgetLeavesTimeForFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server starts its background read — that is
		// what turns the client's hang-up into a context cancellation here.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)
	c := newTestClient(t, []string{ts.URL}, nil)
	fp := ownedBy(t, c, ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	out := c.Route(ctx, fp, []byte("{}"))
	elapsed := time.Since(start)
	if out.Decision != Fallback {
		t.Fatalf("outcome %+v, want fallback from the hung peer", out)
	}
	if ctx.Err() != nil {
		t.Fatalf("forward consumed the caller's whole deadline (elapsed %v)", elapsed)
	}
}
