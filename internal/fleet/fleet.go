// Package fleet makes N pased daemons one logical planner. Rendezvous
// hashing over the canonical solve fingerprints (internal/canon) assigns
// every solve an owner; non-owners forward the raw request to the owner over
// a loop-safe internal route so each unique solve runs once cluster-wide and
// the owner's LRU + singleflight become the cluster's. Peer calls run under
// a deadline budget carved from the caller's context with bounded jittered
// exponential-backoff retries; each peer carries one health bit, cleared by
// a forward that ends without a usable answer and set again by the next
// successful /v1/readyz probe, and an unhealthy peer is out of the live hash
// ring; when the owner is unreachable the caller falls back to solving
// locally — peer failure degrades cache efficiency, never availability.
//
// The package is transport-level on purpose: it moves opaque request/response
// bytes and knows nothing about the planner, so the daemon stays the single
// place that interprets wire schemas.
package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pase/internal/canon"
	"pase/internal/pressure"
)

const (
	// InternalSolvePath is the peer-to-peer route forwarded solves arrive
	// on. Handlers for it must never re-forward, whatever their own ring
	// says — that is the loop-safety invariant.
	InternalSolvePath = "/v1/internal/solve"
	// ForwardedHeader marks a forwarded request (belt to InternalSolvePath's
	// suspenders, and visible in access logs).
	ForwardedHeader = "X-Pase-Forwarded"
	// readyzPath is what the health prober polls on each peer.
	readyzPath = "/v1/readyz"

	// maxRelayBytes bounds how much of a peer response is buffered for
	// relaying, so a misbehaving peer cannot balloon the forwarder.
	maxRelayBytes = 64 << 20
	// relaySpare, with the peer's URL, is the room a response of declared
	// length is read with beyond it, so the caller can append a few marks
	// naming the peer (pased's fleet_forwarded and fleet_owner) in place.
	relaySpare = 64

	// attempts bounds tries per forward. The first retry waits baseBackoff,
	// doubling per retry up to maxBackoff, each with ±50% jitter.
	attempts    = 3
	baseBackoff = 25 * time.Millisecond
	maxBackoff  = 500 * time.Millisecond
)

// Config configures a fleet Client. Self and Peers are base URLs
// (http://host:port); every member must be configured with the same total
// member set — Self here appears in each peer's Peers — or the rings
// disagree and solves duplicate (correctness is unaffected: solves are
// deterministic, so a misrouted request just misses the shared cache).
type Config struct {
	// Self is this daemon's own base URL as peers reach it (the -advertise
	// flag). It is the daemon's identity in the hash ring.
	Self string
	// Peers are the other members' base URLs.
	Peers []string

	// AttemptTimeout bounds each individual peer call (default 2s).
	AttemptTimeout time.Duration
	// ProbeInterval is the background health prober's period; 0 means the
	// default (1s), negative disables the prober (deterministic tests). The
	// prober is the only way an unhealthy peer rejoins the live ring.
	ProbeInterval time.Duration
	// Faults optionally injects peer-site failures ahead of every call
	// attempt (the -fault-plan peer:* entries).
	Faults *pressure.FaultPlan
	// Logf, when set, receives one line per peer state change.
	Logf func(format string, args ...any)
}

// Decision says how Route disposed of a request.
type Decision int

const (
	// Local: this daemon owns the fingerprint — solve it normally.
	Local Decision = iota
	// Forwarded: the owner answered; Outcome carries its response.
	Forwarded
	// Fallback: the owner is another member but could not be reached (or
	// the caller is standing in for a dead owner) — solve locally and mark
	// the result fleet_fallback.
	Fallback
)

func (d Decision) String() string {
	switch d {
	case Local:
		return "local"
	case Forwarded:
		return "forwarded"
	case Fallback:
		return "fallback"
	}
	return "unknown"
}

// Outcome is Route's verdict. For Forwarded, Status/Body are the owner's
// HTTP response to relay (Body with spare capacity for marks naming the owner
// when the owner declared its length); for Fallback, Err says why forwarding
// was not possible (nil when no live member but self was left to try — then
// too the request must be solved locally).
type Outcome struct {
	Decision Decision
	// Owner is the member the ring assigned: for Local, Self; for
	// Forwarded, the peer that answered; for Fallback, the unreachable
	// owner being stood in for.
	Owner  string
	Status int
	Body   []byte
	Err    error
}

// peerState is everything the client tracks per peer.
type peerState struct {
	id string
	// healthy is the peer's one health bit: optimistically true at boot,
	// cleared by a forward that ended without a usable answer, and set by
	// each probe's verdict.
	healthy atomic.Bool

	successes atomic.Int64
	failures  atomic.Int64
	probes    atomic.Int64
}

// Client routes solve requests across the fleet. Safe for concurrent use.
type Client struct {
	cfg     Config
	self    string
	peers   map[string]*peerState
	members []string // self + peers, sorted (deterministic ring input)
	httpc   *http.Client
	rng     struct {
		sync.Mutex
		*rand.Rand
	}

	forwards        atomic.Int64 // successful forwards
	forwardFailures atomic.Int64 // forwards that exhausted retries
	fallbacks       atomic.Int64 // Route verdicts of Fallback
	reroutes        atomic.Int64 // owner sick, live-ring stand-in targeted
	retries         atomic.Int64 // extra attempts beyond each forward's first

	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	probing atomic.Bool // Start launched the prober goroutine
}

// Stats is a point-in-time snapshot of the client's counters. pased serves it
// on /v1/stats and renders every number and bool field on /metrics: a counter
// unless tagged metric:"gauge", skipped when tagged metric:"-".
type Stats struct {
	Self string `json:"self"`
	// Forwards counts solves forwarded to their owning peer.
	Forwards int64 `json:"forwards"`
	// ForwardFailures counts forwards that exhausted their retries.
	ForwardFailures int64 `json:"forward_failures"`
	// Fallbacks counts Route verdicts of Fallback. /metrics leaves it out:
	// its pase_fleet_fallbacks_total is the planner's count of the local
	// solves those verdicts ran.
	Fallbacks int64 `json:"fallbacks" metric:"-"`
	// Reroutes counts forwards redirected to a live stand-in for a sick
	// owner.
	Reroutes int64 `json:"reroutes"`
	// Retries counts peer call attempts beyond each forward's first.
	Retries int64       `json:"retries"`
	Peers   []PeerStats `json:"peers"`
}

// PeerStats is one peer's health view. Breaker is the health bit under its
// older wire name: "closed" when healthy, "open" otherwise.
type PeerStats struct {
	ID string `json:"id"`
	// Healthy is true while the peer is in the live ring: its last probe was
	// ready and no forward failed since.
	Healthy bool   `json:"healthy" metric:"gauge"`
	Breaker string `json:"breaker"`
	// Successes and Failures count peer call attempts by outcome; Probes
	// counts health probes sent.
	Successes int64 `json:"successes"`
	Failures  int64 `json:"failures"`
	Probes    int64 `json:"probes"`
}

// New validates cfg and builds a Client. Call Start to begin health probing
// and Close when done.
func New(cfg Config) (*Client, error) {
	self, err := normalizeMember(cfg.Self)
	if err != nil {
		return nil, fmt.Errorf("fleet: self %q: %w", cfg.Self, err)
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 2 * time.Second
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
	}
	c := &Client{
		cfg:   cfg,
		self:  self,
		peers: map[string]*peerState{},
		httpc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	c.rng.Rand = rand.New(rand.NewSource(time.Now().UnixNano()))
	for _, raw := range cfg.Peers {
		p, err := normalizeMember(raw)
		if err != nil {
			return nil, fmt.Errorf("fleet: peer %q: %w", raw, err)
		}
		if p == self {
			return nil, fmt.Errorf("fleet: peer %q is self (-advertise must not appear in -peers)", raw)
		}
		if _, dup := c.peers[p]; dup {
			continue
		}
		ps := &peerState{id: p}
		ps.healthy.Store(true)
		c.peers[p] = ps
	}
	if len(c.peers) == 0 {
		return nil, fmt.Errorf("fleet: no peers (omit the fleet entirely for a single-node daemon)")
	}
	c.members = append(c.members, self)
	for p := range c.peers {
		c.members = append(c.members, p)
	}
	sort.Strings(c.members)
	return c, nil
}

// normalizeMember canonicalizes a member URL: scheme://host[:port], no
// trailing slash, no path. Every daemon must spell a member identically or
// the rings disagree.
func normalizeMember(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", err
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("want an http(s) base URL like http://10.0.0.2:8555")
	}
	if u.Host == "" || u.Path != "" || u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("want a bare base URL like http://10.0.0.2:8555")
	}
	return u.Scheme + "://" + u.Host, nil
}

// Start launches the background health prober (a no-op when disabled).
func (c *Client) Start() {
	if c.cfg.ProbeInterval < 0 || !c.probing.CompareAndSwap(false, true) {
		return
	}
	go c.probeLoop()
}

// Close stops the prober. Safe to call more than once.
func (c *Client) Close() {
	c.once.Do(func() { close(c.stop) })
	if c.probing.Load() {
		<-c.done
	}
}

// Self returns this member's ring identity.
func (c *Client) Self() string { return c.self }

// Members returns the full member set (self included), sorted.
func (c *Client) Members() []string {
	out := make([]string, len(c.members))
	copy(out, c.members)
	return out
}

// Owner returns fp's owner on the full ring (ignoring health) — the member
// whose LRU is the cluster's home for this solve.
func (c *Client) Owner(fp canon.Fingerprint) string {
	return RendezvousOwner(c.members, fp)
}

// Route decides how to serve the request whose canonical fingerprint is fp
// and whose raw JSON body is body. It never returns an error outcome for a
// solvable request: the worst verdict is Fallback, which instructs the
// caller to solve locally and mark the result.
func (c *Client) Route(ctx context.Context, fp canon.Fingerprint, body []byte) Outcome {
	owner := RendezvousOwner(c.members, fp)
	if owner == c.self {
		return Outcome{Decision: Local, Owner: c.self}
	}
	// The live ring removes sick peers: if the owner is out, the remaining
	// live members (self always included) elect a stand-in so the cluster
	// still dedupes the solve to roughly one member during the outage.
	target := owner
	if !c.peers[owner].healthy.Load() {
		live := []string{c.self}
		for _, m := range c.members {
			if p, isPeer := c.peers[m]; isPeer && p.healthy.Load() {
				live = append(live, m)
			}
		}
		target = RendezvousOwner(live, fp)
		if target == c.self {
			c.fallbacks.Add(1)
			return Outcome{Decision: Fallback, Owner: owner}
		}
		c.reroutes.Add(1)
	}
	status, respBody, err := c.forward(ctx, target, body)
	if err != nil {
		c.forwardFailures.Add(1)
		c.fallbacks.Add(1)
		return Outcome{Decision: Fallback, Owner: target, Err: err}
	}
	c.forwards.Add(1)
	return Outcome{Decision: Forwarded, Owner: target, Status: status, Body: respBody}
}

// forward sends body to target's internal solve route with retries. It
// returns the peer's response for any status it considers definitive
// (anything but 5xx/429). A 429 falls back at once and leaves the peer
// healthy — it is alive, just loaded. Any other forward that ends without
// an answer marks the peer unhealthy until its next good probe, unless the
// caller itself gave up.
func (c *Client) forward(ctx context.Context, target string, body []byte) (int, []byte, error) {
	ps := c.peers[target]
	status, respBody, err := c.tryForward(ctx, ps, body)
	if err != nil && status != http.StatusTooManyRequests && ctx.Err() == nil && ps.healthy.Swap(false) {
		c.logf("fleet: peer %s unhealthy (%v), removed from ring", ps.id, err)
	}
	return status, respBody, err
}

// tryForward is forward's retry loop. On failure it returns the last
// attempt's status (0 for a transport error) with the error.
func (c *Client) tryForward(ctx context.Context, ps *peerState, body []byte) (int, []byte, error) {
	// Budget: keep at least half the caller's remaining deadline for the
	// local fallback solve, so a slow peer cannot starve it.
	fctx := ctx
	if dl, ok := ctx.Deadline(); ok {
		var cancel context.CancelFunc
		fctx, cancel = context.WithDeadline(ctx, time.Now().Add(time.Until(dl)/2))
		defer cancel()
	}
	var lastErr error
	backoff := baseBackoff
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			t := time.NewTimer(c.jitter(backoff))
			select {
			case <-t.C:
			case <-fctx.Done():
				t.Stop()
				return 0, nil, lastErr
			}
			backoff = min(2*backoff, maxBackoff)
		}
		status, respBody, err := c.attempt(fctx, ps.id, body)
		if err == nil && status != http.StatusTooManyRequests && status < 500 {
			ps.successes.Add(1)
			return status, respBody, nil
		}
		if err == nil {
			err = fmt.Errorf("fleet: peer %s answered %d", ps.id, status)
		}
		lastErr = err
		if status == http.StatusTooManyRequests {
			// The peer is alive but shedding load; hammering it with
			// retries makes its overload worse.
			return status, nil, lastErr
		}
		ps.failures.Add(1)
		if fctx.Err() != nil {
			return 0, nil, lastErr
		}
	}
	return 0, nil, lastErr
}

// attempt is one peer call: fault injection, then the HTTP round trip, under
// the per-attempt timeout.
func (c *Client) attempt(ctx context.Context, target string, body []byte) (int, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	if err := c.cfg.Faults.Fire(actx, pressure.SitePeer); err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, target+InternalSolvePath, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, c.self)
	resp, err := c.httpc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var respBody []byte
	if n := resp.ContentLength; n >= 0 && n <= maxRelayBytes {
		respBody = make([]byte, n, n+relaySpare+int64(len(target)))
		_, err = io.ReadFull(resp.Body, respBody)
	} else {
		respBody, err = io.ReadAll(io.LimitReader(resp.Body, maxRelayBytes))
	}
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, respBody, nil
}

// jitter spreads d to [d/2, 3d/2) so retry storms from many members decorrelate.
func (c *Client) jitter(d time.Duration) time.Duration {
	c.rng.Lock()
	// No float64() against fusion: a fused op moves only a backoff's last bit.
	f := 0.5 + c.rng.Float64()
	c.rng.Unlock()
	return time.Duration(float64(d) * f)
}

// probeLoop polls every peer's /v1/readyz: a ready peer is marked healthy
// (the only way back into the live ring after a failed forward or a
// restart); anything else marks it unhealthy and out of the ring.
func (c *Client) probeLoop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	c.probeAll()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

func (c *Client) probeAll() {
	var wg sync.WaitGroup
	for _, ps := range c.peers {
		wg.Add(1)
		go func(ps *peerState) {
			defer wg.Done()
			c.probe(ps)
		}(ps)
	}
	wg.Wait()
}

func (c *Client) probe(ps *peerState) {
	ps.probes.Add(1)
	timeout := time.Second
	if iv := c.cfg.ProbeInterval; iv > 0 && iv < timeout {
		timeout = iv
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ps.id+readyzPath, nil)
	if err != nil {
		return
	}
	resp, err := c.httpc.Do(req)
	ok := err == nil && resp.StatusCode == http.StatusOK
	if err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}
	if was := ps.healthy.Swap(ok); was != ok {
		if ok {
			c.logf("fleet: peer %s healthy", ps.id)
		} else {
			c.logf("fleet: peer %s unhealthy (%v), removed from ring", ps.id, err)
		}
	}
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Stats snapshots the client's counters, peers sorted by id.
func (c *Client) Stats() Stats {
	st := Stats{
		Self:            c.self,
		Forwards:        c.forwards.Load(),
		ForwardFailures: c.forwardFailures.Load(),
		Fallbacks:       c.fallbacks.Load(),
		Reroutes:        c.reroutes.Load(),
		Retries:         c.retries.Load(),
	}
	for _, m := range c.members {
		ps, isPeer := c.peers[m]
		if !isPeer {
			continue
		}
		healthy, breaker := ps.healthy.Load(), "open"
		if healthy {
			breaker = "closed"
		}
		st.Peers = append(st.Peers, PeerStats{
			ID:        ps.id,
			Healthy:   healthy,
			Breaker:   breaker,
			Successes: ps.successes.Load(),
			Failures:  ps.failures.Load(),
			Probes:    ps.probes.Load(),
		})
	}
	return st
}
