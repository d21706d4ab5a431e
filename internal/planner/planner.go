// Package planner is the serving layer above the solve pipeline: a Planner
// canonically fingerprints each request (internal/canon), caches solved
// results in a bounded LRU keyed by that fingerprint, deduplicates concurrent
// identical requests down to a single underlying solve (singleflight), and
// fans independent batch requests across a worker pool that shares all of
// it. Every cost model it builds is a cold build: building a model costs a
// few milliseconds against the search's hundreds, so no class tables are
// kept across requests.
//
// Every request flows through one context-first entry point, Solve(ctx,
// Request), and every strategy-producing method the paper evaluates —
// the dependent-set DP ("dp"), the FlexFlow-substitute MCMC search ("mcmc"),
// pure data parallelism ("dataparallel"), and the expert baselines
// ("expert:<family>") — is a Method on that request: fingerprinted with the
// method, cached, singleflighted, and cancellable mid-solve.
//
// A request's one route is Prepare → lookup → admit → lookup → lead the
// flight, whose body (doSolve) holds the only method dispatch. Prepare
// validates, normalizes and fingerprints the request, once; Solve is Prepare
// followed by SolvePrepared, and a front end that keys on the fingerprint
// first (cmd/pased) calls the two itself.
package planner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pase/internal/canon"
	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/lru"
	"pase/internal/machine"
	"pase/internal/pressure"
	"pase/internal/strategies"
)

// ErrShed is returned when admission control rejects a request because the
// solve queue is full (Config.MaxInFlight/MaxQueue). The rejection is
// immediate — a saturated planner answers in microseconds, never by
// blocking — and the request is safe to retry once pressure subsides.
var ErrShed = pressure.ErrShed

// ErrSolvePanic wraps a panic recovered from an underlying solve or model
// build: the panicking request (and any ride-along waiters) fails with this
// error, the planner's Panics counter increments, and every other request
// keeps being served.
var ErrSolvePanic = errors.New("planner: solve panicked")

// Degradation reasons reported on Result.DegradeReason.
const (
	// DegradeReasonOOM: the exact DP exceeded its table budget (core.ErrOOM),
	// so the planner served the bounded-width beam solve instead. The outcome
	// is deterministic for the request, so it IS cached — repeat requests get
	// the degraded answer immediately instead of re-running into the OOM.
	DegradeReasonOOM = "oom"
	// DegradeReasonPressure: the admission queue was deep enough at arrival
	// that the planner traded exactness for latency. Pressure is transient,
	// so the result is served to the current waiters but never cached.
	DegradeReasonPressure = "pressure"
)

// DefaultBeamWidth is the frontier width of a "beam" request that names none.
const DefaultBeamWidth = 32

// Request is one solve request: a graph, a machine, and solve options.
// Graphs handed to the planner must not be mutated afterwards — the planner
// caches results and class tables under the graph's fingerprints at request
// time.
type Request struct {
	G    *graph.Graph
	Spec machine.Spec
	Opts Options
}

// BatchItem is one outcome of SolveBatch, aligned with the request slice.
type BatchItem struct {
	Result *Result
	Err    error
}

// Config sizes a Planner. The zero value selects sensible defaults.
type Config struct {
	// ResultCacheSize bounds the solved-result LRU (default 128 results).
	ResultCacheSize int
	// DeltaCacheSize bounds the incremental re-solve cache: how many DP
	// snapshots (with their elimination's checks) the planner retains, keyed
	// by graph topology and solve shape, so a request differing from a
	// cached one fills only the DP tables whose content keys changed.
	// Snapshots retain the full DP tables of their solve, so keep this small.
	// Zero selects 2; negative disables incremental re-solve entirely (every
	// dp solve runs cold).
	DeltaCacheSize int
	// MaxInFlight enables admission control when > 0: at most this many
	// underlying solves run concurrently, at most MaxQueue more wait for a
	// slot (by Options.Priority, FIFO within a priority), and arrivals
	// beyond that are rejected immediately with ErrShed. Cache hits and
	// ride-alongs on in-flight identical solves are always admitted — they
	// perform no new work. Zero disables admission control entirely
	// (the pre-pressure behavior).
	MaxInFlight int
	// MaxQueue bounds requests waiting for a solve slot (only meaningful
	// with MaxInFlight > 0). Zero selects pressure.DefaultMaxQueue.
	MaxQueue int
	// DegradeBeamWidth enables the graceful-degradation ladder when > 0: a
	// "dp" request whose exact solve hits core.ErrOOM — or that arrives
	// while the admission queue is at least half of MaxQueue deep — is
	// served by a single bounded-width beam pass at this width instead of
	// failing or adding exact-solve latency to a saturated queue. Degraded
	// results are marked (Result.Degraded/DegradeReason) and carry the beam
	// gap contract. Zero disables degradation: ErrOOM surfaces to the
	// caller as before.
	DegradeBeamWidth int
	// FaultPlan, when non-nil, injects deterministic faults (ErrOOM,
	// panics, latency) at named pipeline sites — see pressure.ParseFaultPlan.
	// Test and debug only; nil in production.
	FaultPlan *pressure.FaultPlan
}

func (c Config) resultCacheSize() int {
	if c.ResultCacheSize == 0 {
		return 128
	}
	return c.ResultCacheSize
}

func (c Config) deltaCacheSize() int {
	if c.DeltaCacheSize == 0 {
		return 2
	}
	if c.DeltaCacheSize < 0 {
		return 0
	}
	return c.DeltaCacheSize
}

// degradeQueueDepth is the admission-queue depth at which incoming "dp"
// requests start degrading: half of the queue bound, at least 1.
func (c Config) degradeQueueDepth() int {
	q := c.MaxQueue
	if q <= 0 {
		q = pressure.DefaultMaxQueue
	}
	return max(q/2, 1)
}

// Stats is a snapshot of the planner's cache and dedup counters. "One
// underlying solve per unique request" means Solves equals the number of
// distinct fingerprints ever requested (while none has been evicted and no
// flight was abandoned by every waiter). pased serves it on /v1/stats and
// renders every number field on /metrics: a counter unless tagged
// metric:"gauge".
type Stats struct {
	// Solves counts underlying method runs actually performed and completed
	// (DP solves, MCMC chains, baseline evaluations).
	Solves int64 `json:"solves"`
	// ModelBuilds counts cost models actually constructed.
	ModelBuilds int64 `json:"model_builds"`
	// ResultHits / ResultMisses count result-cache lookups.
	ResultHits   int64 `json:"result_hits"`
	ResultMisses int64 `json:"result_misses"`
	// DedupWaits counts requests that rode along on a concurrent identical
	// request's in-flight solve instead of starting their own.
	DedupWaits int64 `json:"dedup_waits"`
	// Cancelled counts requests that returned early because their context
	// was cancelled while waiting for admission or on a solve flight. A
	// cancelled follower detaches without stopping the shared solve; the
	// flight itself is aborted only when its last waiter cancels.
	Cancelled int64 `json:"cancelled"`
	// ResultEvictions counts result-LRU evictions.
	ResultEvictions int64 `json:"result_evictions"`
	// VertexClasses / EdgeClasses total the structural-sharing class counts
	// across all models this planner built; SharedTableBytes totals the
	// table bytes interning saved versus per-occurrence builds. Repeated
	// structure (Transformer encoder layers, inception modules) shows up
	// here as classes far below the node/edge counts served.
	VertexClasses    int64 `json:"vertex_classes"`
	EdgeClasses      int64 `json:"edge_classes"`
	SharedTableBytes int64 `json:"shared_table_bytes"`
	// DeltaResolves counts dp solves served by incremental re-solve (a
	// cached snapshot re-solved, only the tables whose keys changed filled).
	// DeltaFallbacks is never incremented: a re-solve fails only where the
	// cold solve would, and its error is the request's. It stays for the
	// benchmark harness, which reads it.
	DeltaResolves  int64 `json:"delta_resolves"`
	DeltaFallbacks int64 `json:"delta_fallbacks"`
	// BeamSolves counts underlying "beam" method runs actually performed.
	// LastGap is the optimality gap of the most recent completed beam solve
	// (zero when it proved exactness).
	BeamSolves int64   `json:"beam_solves"`
	LastGap    float64 `json:"last_gap" metric:"gauge"`
	// Shed counts requests rejected immediately because the admission queue
	// was full; Queued counts requests that waited for a solve slot.
	// QueueDepth and InFlight are gauges read at snapshot time. All zero
	// without admission control (Config.MaxInFlight).
	Shed       int64 `json:"shed"`
	Queued     int64 `json:"queued"`
	QueueDepth int   `json:"queue_depth" metric:"gauge"`
	InFlight   int   `json:"in_flight" metric:"gauge"`
	// Degraded counts "dp" requests served by the degradation ladder (a
	// bounded beam solve instead of the exact DP — ErrOOM or queue
	// pressure); Panics counts solves or model builds that panicked and
	// were isolated to their own request.
	Degraded int64 `json:"degraded"`
	Panics   int64 `json:"panics"`
	// RestoredResults counts result-cache entries loaded from a warm-restart
	// snapshot (Planner.LoadSnapshot).
	RestoredResults int64 `json:"restored_results"`
	// FleetFallbacks counts solves this planner ran in place of an
	// unreachable fleet owner (SolvePrepared's fleetFallback); their results
	// are never cached here.
	FleetFallbacks int64 `json:"fleet_fallbacks"`
}

// solveFlight is one in-flight underlying solve. waiters counts the callers
// whose contexts are still interested; when it reaches zero the flight's
// cancel aborts the solve. release returns the admission slot the flight
// runs under.
type solveFlight struct {
	done    chan struct{}
	cancel  context.CancelCauseFunc
	release func()
	waiters int
	res     *Result
	err     error
}

// Planner caches, deduplicates, and serves strategy solves. It is safe for
// concurrent use by any number of goroutines.
type Planner struct {
	cfg Config
	// gate is the admission gate bounding concurrent underlying solves and
	// the queue behind them. nil when Config.MaxInFlight is zero: every
	// request is admitted unconditionally.
	gate *pressure.Gate

	mu           sync.Mutex
	results      *lru.Cache[canon.Fingerprint, *Result]
	solveFlights map[canon.Fingerprint]*solveFlight
	deltas       *lru.Cache[canon.Fingerprint, *deltaEntry]
	stats        Stats
}

// New returns a Planner sized by cfg (zero value: defaults).
func New(cfg Config) *Planner {
	p := &Planner{
		cfg:          cfg,
		solveFlights: map[canon.Fingerprint]*solveFlight{},
	}
	if cfg.MaxInFlight > 0 {
		p.gate = pressure.NewGate(pressure.GateConfig{
			MaxInFlight: cfg.MaxInFlight,
			MaxQueue:    cfg.MaxQueue,
		})
	}
	p.results = lru.New(cfg.resultCacheSize(), func(canon.Fingerprint, *Result) {
		p.stats.ResultEvictions++
	})
	if n := cfg.deltaCacheSize(); n > 0 {
		p.deltas = lru.New[canon.Fingerprint, *deltaEntry](n, nil)
	}
	return p
}

// Fingerprints returns the model- and solve-level canonical fingerprints of a
// request. The model fingerprint covers (graph, machine, enumeration
// policy); the solve fingerprint extends it with the result-relevant
// solver options: ordering choice, the effective memory budget, and — only
// when not the default "dp" — the method with its method-specific knobs
// (normalized mcmc.Options and the MCMC seed strategy; the effective beam
// width and normalized gap target). Workers is excluded
// because results are byte-identical at any worker count; method "dp" is
// excluded because it reproduces pre-field results byte for byte, keeping
// pre-existing fingerprints stable.
func Fingerprints(req Request) (modelFP, solveFP canon.Fingerprint) {
	w := canon.NewWriter()
	w.Label("pase.request/v1")
	req.G.CanonicalEncode(w)
	req.Spec.CanonicalEncode(w)
	req.Opts.Policy.CanonicalEncode(w)
	modelFP = w.Sum()
	w.Label("solve-options")
	budget := req.Opts.MaxTableEntries
	if budget <= 0 {
		budget = core.DefaultMaxTableEntries
	}
	w.I64(budget)
	w.Bool(req.Opts.BreadthFirst)
	if method := req.Opts.method(); method != "dp" {
		w.Label("method")
		w.Str(method)
		if method == "mcmc" {
			req.Opts.MCMC.CanonicalEncode(w)
			w.Label("mcmc-init")
			w.Str(req.Opts.mcmcInit())
		}
		if method == "beam" {
			// Prepare normalizes the beam fields before fingerprinting: width
			// is the effective positive value (a zero became
			// DefaultBeamWidth) and gap targets <= 0 collapse to -1.
			w.Label("beam")
			w.Int(req.Opts.BeamWidth)
			w.F64(req.Opts.GapTarget)
		}
	}
	solveFP = w.Sum()
	return modelFP, solveFP
}

// Prepared is a request after the front of its route: validated, its options
// normalized and its solve fingerprint taken, once each (Prepare).
// SolvePrepared solves it, and a front end keys its memo and fleet routing on
// its Fingerprint.
type Prepared struct {
	req Request
	fp  canon.Fingerprint
}

// Fingerprint is the solve fingerprint the result is cached under — the
// fleet layer's shard key.
func (p *Prepared) Fingerprint() canon.Fingerprint { return p.fp }

// Request is the request as prepared: its options normalized.
func (p *Prepared) Request() Request { return p.req }

// Prepare is the only place a request is validated, option-normalized and
// fingerprinted, and it touches no counter. Validation comes first, so a request
// the pipeline cannot serve (a bad MCMC seed strategy, say) fails before
// anything is fingerprinted or built. Normalization resolves the options
// exactly as they are fingerprinted: a "beam" request's zero width becomes
// DefaultBeamWidth (a negative one is rejected) and its gap targets <= 0,
// which all mean one pass, collapse to -1. Every other method has its beam
// knobs cleared so they cannot perturb behavior (they are not fingerprinted
// anyway).
func (p *Planner) Prepare(req Request) (*Prepared, error) {
	if err := ValidateMethod(req.Opts.Method); err != nil {
		return nil, err
	}
	if init := req.Opts.MCMCInit; init != "" {
		if err := ValidateMethod(init); err != nil {
			return nil, err
		}
		if !strategies.IsBaselineMethod(init) {
			return nil, fmt.Errorf("planner: MCMCInit %q is not a baseline method (want dataparallel or expert:<family>)", init)
		}
	}
	if req.G == nil {
		return nil, errors.New("planner: nil graph")
	}

	opts := &req.Opts
	switch {
	case opts.method() != "beam":
		opts.BeamWidth, opts.GapTarget = 0, 0
	case opts.BeamWidth < 0:
		return nil, fmt.Errorf("planner: negative beam width %d", opts.BeamWidth)
	default:
		if opts.BeamWidth == 0 {
			opts.BeamWidth = DefaultBeamWidth
		}
		if opts.GapTarget <= 0 {
			opts.GapTarget = -1
		}
	}
	_, fp := Fingerprints(req)
	return &Prepared{req: req, fp: fp}, nil
}

// Lookup answers fp from the result cache without running Solve's pipeline:
// the hit path of a front end that already holds the request's fingerprint
// (cmd/pased). A hit is counted in Stats.ResultHits, marked most recently
// used, and returned as the cache's own entry — shared and read-only, where
// Solve hands out a copy — so the pointer also identifies the entry: it stays
// the same until the entry is evicted or replaced, which is what lets a caller
// keep bytes encoded from it. The per-request fields on it (Cached, Timings)
// are the original solve's, not this lookup's. On a miss nothing is counted —
// the Solve that follows counts it — and inFlight reports an identical solve
// in progress, which that Solve would join: either way the answer is local,
// and as good as a fleet owner's copy.
func (p *Planner) Lookup(fp canon.Fingerprint) (res *Result, inFlight bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if res, ok := p.results.Get(fp); ok {
		p.stats.ResultHits++
		return res, false
	}
	_, inFlight = p.solveFlights[fp]
	return nil, inFlight
}

// Solve serves one request: Prepare, then SolvePrepared, which every method
// and every front end (pase.Solve, SolveBatch, cmd/pased) routes through.
// Identical previously-solved requests are cache hits; a request identical to
// one currently in flight joins that flight. The returned Result is the
// caller's to keep: its Strategy is an independent copy.
//
// ctx cancels this caller's interest only: a joined flight keeps solving for
// its other waiters, and the underlying solve is aborted — promptly, at the
// pipeline's coarse cancellation polls — only when the last interested
// caller has cancelled. The error is ctx's error (context.Canceled or
// context.DeadlineExceeded), possibly wrapped.
func (p *Planner) Solve(ctx context.Context, req Request) (*Result, error) {
	prep, err := p.Prepare(req)
	if err != nil {
		return nil, err
	}
	return p.SolvePrepared(ctx, prep, false)
}

// SolvePrepared is the rest of Solve's route for a prepared request: lookup →
// admit → lookup → lead the flight. fleetFallback marks a request this daemon
// is solving in place of an unreachable fleet owner: the result is served
// and marked but never cached (see Result.FleetFallback), and counted in
// Stats.FleetFallbacks. It is not fingerprinted: the answer is identical
// either way.
func (p *Planner) SolvePrepared(ctx context.Context, prep *Prepared, fleetFallback bool) (*Result, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	req, fp := prep.req, prep.fp

	// Cache hits and ride-alongs on in-flight identical solves bypass
	// admission control — they perform no new underlying work, so shedding
	// or queueing them would only add latency to free answers.
	if res, ok, err := p.lookup(ctx, fp, start, nil); ok {
		return res, err
	}
	release, degradeReason, err := p.admit(ctx, req.Opts)
	if err != nil {
		return nil, err
	}
	// Look again, now ready to lead: an identical request may have completed
	// or started its flight while this one waited for admission; if none
	// did, lookup registers fl under the same lock.
	//
	// The solve runs on its own flight context so the leader can detach like
	// any other waiter while the flight finishes for the rest; the flight
	// context is cancelled only when the last waiter detaches (waitSolve).
	flightCtx, cancel := context.WithCancelCause(context.Background())
	fl := &solveFlight{done: make(chan struct{}), cancel: cancel, release: release, waiters: 1}
	if res, ok, err := p.lookup(ctx, fp, start, fl); ok {
		return res, err
	}

	go func() {
		defer release()
		res, err := p.doSolve(flightCtx, req, degradeReason)
		if err == nil {
			res.Fingerprint = fp.String()
			res.FleetFallback = fleetFallback
		}
		p.mu.Lock()
		if p.solveFlights[fp] == fl {
			delete(p.solveFlights, fp)
		}
		if fleetFallback {
			p.stats.FleetFallbacks++
		}
		if err == nil {
			p.stats.Solves++
			if !res.noCache() {
				p.results.Put(fp, res)
			}
		}
		fl.res, fl.err = res, err
		p.mu.Unlock()
		close(fl.done)
		cancel(nil)
	}()
	return p.waitSolve(ctx, fp, fl, start, true)
}

// lookup answers fp without new underlying work when it can — a result-cache
// hit, or a ride-along on the in-flight identical solve — and reports
// whether it did. On a miss a non-nil lead is registered as fp's flight
// under the same lock hold, so no identical request can slip between the
// miss and the registration; when lead turns out not to be needed, its
// admission slot and context are handed back before the answer is waited on.
func (p *Planner) lookup(ctx context.Context, fp canon.Fingerprint, start time.Time, lead *solveFlight) (res *Result, ok bool, err error) {
	p.mu.Lock()
	hit, cached := p.results.Get(fp)
	fl, inFlight := p.solveFlights[fp]
	switch {
	case cached:
		p.stats.ResultHits++
	case inFlight:
		p.stats.DedupWaits++
		fl.waiters++
	case lead != nil:
		p.stats.ResultMisses++
		p.solveFlights[fp] = lead
	}
	p.mu.Unlock()
	if !cached && !inFlight {
		return nil, false, nil
	}
	if lead != nil {
		lead.release()
		lead.cancel(nil)
	}
	if cached {
		out := hit.clone()
		out.Cached = true
		out.Timings = Timings{Total: time.Since(start)}
		return out, true, nil
	}
	res, err = p.waitSolve(ctx, fp, fl, start, false)
	return res, true, err
}

// admit takes one of the MaxInFlight slots for a request about to start a new
// underlying solve (waiting by priority when none is free, shed immediately
// when the queue is full) and returns the slot's release. The observed queue
// depth at arrival is the pressure signal for the degradation ladder: a deep
// queue downgrades exact "dp" requests to a fast bounded beam pass so the
// queue keeps draining.
func (p *Planner) admit(ctx context.Context, opts Options) (release func(), degradeReason string, err error) {
	if p.gate == nil {
		return func() {}, "", nil
	}
	depth, err := p.gate.Acquire(ctx, opts.Priority)
	if err != nil {
		if !errors.Is(err, pressure.ErrShed) {
			p.mu.Lock()
			p.stats.Cancelled++
			p.mu.Unlock()
		}
		return nil, "", err
	}
	if p.cfg.DegradeBeamWidth > 0 && opts.method() == "dp" && depth >= p.cfg.degradeQueueDepth() {
		degradeReason = DegradeReasonPressure
	}
	return p.gate.Release, degradeReason, nil
}

// guard converts a panic on the calling goroutine into an ErrSolvePanic
// failure of just this call, counting it: a panicking solve or model build
// fails only its own request (and ride-along waiters), never the process.
// Call via defer with the named return values.
func guard[T any](p *Planner, out *T, err *error) {
	if r := recover(); r != nil {
		p.mu.Lock()
		p.stats.Panics++
		p.mu.Unlock()
		var zero T
		*out, *err = zero, fmt.Errorf("%w: %v", ErrSolvePanic, r)
	}
}

// waitSolve blocks until the flight completes or the caller's ctx is
// cancelled. A cancelled caller detaches: it decrements the flight's waiter
// count and — when it was the last — cancels the flight's context (aborting
// the solve) and unlinks the flight so a later identical request starts
// fresh instead of inheriting a doomed one.
func (p *Planner) waitSolve(ctx context.Context, fp canon.Fingerprint, fl *solveFlight, start time.Time, leader bool) (*Result, error) {
	select {
	case <-fl.done:
		if fl.err != nil {
			return nil, fl.err
		}
		out := fl.res.clone()
		if !leader {
			out.Cached, out.Timings = true, Timings{}
		}
		out.Timings.Total = time.Since(start)
		return out, nil
	case <-ctx.Done():
		p.mu.Lock()
		fl.waiters--
		last := fl.waiters == 0
		if last && p.solveFlights[fp] == fl {
			delete(p.solveFlights, fp)
		}
		p.stats.Cancelled++
		p.mu.Unlock()
		if last {
			fl.cancel(context.Cause(ctx))
		}
		return nil, context.Cause(ctx)
	}
}

// Model returns a freshly built cost model for (g, spec, pol), for callers
// that need direct model access (strategy costing, simulation baselines,
// sweeps).
func (p *Planner) Model(ctx context.Context, g *graph.Graph, spec machine.Spec, pol itspace.EnumPolicy) (*cost.Model, error) {
	return p.buildModel(ctx, Request{G: g, Spec: spec, Opts: Options{Policy: pol}})
}

// buildModel constructs the request's cost model behind the fault plan's
// model site and panic isolation.
func (p *Planner) buildModel(ctx context.Context, req Request) (m *cost.Model, err error) {
	defer guard(p, &m, &err)
	if err := p.cfg.FaultPlan.Fire(ctx, pressure.SiteModel); err != nil {
		return nil, err
	}
	m, err = cost.NewModelWith(ctx, req.G, req.Spec, req.Opts.Policy, cost.BuildOptions{})
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.stats.ModelBuilds++
	info := m.Info()
	p.stats.VertexClasses += int64(info.VertexClasses)
	p.stats.EdgeClasses += int64(info.EdgeClasses)
	p.stats.SharedTableBytes += info.SharedTableBytes
	p.mu.Unlock()
	return m, nil
}

// SolveBatch solves independent requests concurrently across GOMAXPROCS
// workers, sharing the caches and deduplicating identical entries down to one
// solve. The returned slice is aligned with reqs. Cancelling ctx
// cancels every entry: in-flight entries detach (aborting solves no other
// caller wants) and unstarted entries fail immediately with ctx's error.
func (p *Planner) SolveBatch(ctx context.Context, reqs []Request) []BatchItem {
	out := make([]BatchItem, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(reqs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i].Result, out[i].Err = p.Solve(ctx, reqs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// Stats returns a snapshot of the planner's counters.
func (p *Planner) Stats() Stats {
	p.mu.Lock()
	st := p.stats
	p.mu.Unlock()
	gs := p.gate.Stats()
	st.Shed = gs.Shed
	st.Queued = gs.Queued
	st.QueueDepth = gs.QueueDepth
	st.InFlight = gs.InFlight
	return st
}

// CacheSizes reports the current result-cache entry count.
func (p *Planner) CacheSizes() (results int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.results.Len()
}
