package planner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"pase/internal/canon"
	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/export"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/mcmc"
	"pase/internal/pressure"
	"pase/internal/seq"
	"pase/internal/strategies"
)

// Options tunes a solve request. It is re-exported as pase.Options.
type Options struct {
	// Method selects the strategy-search method: "dp" (default — the paper's
	// dependent-set dynamic program), "beam" (the anytime bounded-width DP;
	// see BeamWidth/GapTarget), "mcmc" (the FlexFlow-substitute Metropolis
	// search), "dataparallel" (the standard-practice baseline), or
	// "expert:<family>" with family "cnn", "rnn", or "transformer" (the
	// paper's expert baselines). All methods run through the same planner
	// request path — fingerprinted (the method is part of the solve
	// fingerprint), cached, and singleflighted — and fill the same Result.
	// Empty means "dp"; "dp" itself is excluded from the fingerprint so
	// default request identities predate the field.
	Method string
	// MCMC tunes the "mcmc" method (ignored by the others). The zero value
	// is normalized to the package defaults before fingerprinting, so an
	// unset struct and the explicit defaults share one cache identity.
	MCMC mcmc.Options
	// MCMCInit selects the "mcmc" chain's initial strategy, itself a baseline
	// method name: "dataparallel" (the default) or "expert:<family>" (the
	// paper seeds FlexFlow's search with the expert strategies).
	MCMCInit string
	// Policy restricts configuration enumeration (zero value: the paper's
	// divisibility rule only).
	Policy itspace.EnumPolicy
	// MaxTableEntries bounds the DP tables' peak live memory in nominal
	// entries — Π K per table, whatever its stored quotient takes (tables are
	// freed as soon as no later recurrence lookup can read them); exceeding
	// it returns core.ErrOOM. Zero selects core.DefaultMaxTableEntries.
	MaxTableEntries int64
	// BreadthFirst switches to the naive Section III-A ordering (the
	// baseline that OOMs on InceptionV3/Transformer). Default: GENERATESEQ.
	BreadthFirst bool
	// Workers parallelizes each vertex's DP-table fill across goroutines
	// (results are byte-identical at any worker count, so Workers is NOT
	// part of a request's cache identity). Zero — the default — uses all
	// available CPUs; set 1 for the explicit serial mode.
	Workers int
	// BeamWidth bounds the "beam" method's frontier: each DP table keeps the
	// top-W dependent-set configurations by cost (plus a greedy guide state,
	// so a valid strategy always survives). Zero means DefaultBeamWidth, and
	// a negative width is rejected. The effective width is part of the
	// request's cache identity. Ignored by every method but "beam".
	BeamWidth int
	// GapTarget steers the "beam" method's refinement (see
	// core.BeamOptions.GapTarget): <= 0 runs a single pass at BeamWidth, and
	// > 0 doubles the width until the tracked optimality gap falls to the
	// target, a pass is exact, or the width outgrows MaxTableEntries. It is
	// part of the request's cache identity, every value <= 0 normalized to
	// -1. Ignored by every method but "beam".
	GapTarget float64
	// Priority orders requests waiting for a solve slot under admission
	// control (Config.MaxInFlight): higher priorities are granted slots
	// first, ties are served FIFO in arrival order. It cannot change which
	// result is produced, so it is NOT part of the request's cache identity;
	// without admission control it is ignored.
	Priority int
}

// method returns the normalized method name ("" means "dp").
func (o Options) method() string {
	if o.Method == "" {
		return "dp"
	}
	return o.Method
}

// mcmcInit returns the normalized MCMC seed-strategy method.
func (o Options) mcmcInit() string {
	if o.MCMCInit == "" {
		return "dataparallel"
	}
	return o.MCMCInit
}

// ValidateMethod reports whether method names a known solve method: "",
// "dp", "beam", "mcmc", "dataparallel", or "expert:<family>" with a family
// from strategies.Families. It is the wire-level validation hook for
// daemons, so malformed methods are rejected before they are fingerprinted
// or solved.
func ValidateMethod(method string) error {
	switch method {
	case "", "dp", "beam", "mcmc", "dataparallel":
		return nil
	}
	if fam, ok := strings.CutPrefix(method, "expert:"); ok {
		for _, f := range strategies.Families() {
			if fam == f {
				return nil
			}
		}
		return fmt.Errorf("planner: unknown expert family %q (want one of %v)", fam, strategies.Families())
	}
	return fmt.Errorf("planner: unknown method %q (want dp, beam, mcmc, dataparallel, or expert:<family>)", method)
}

// Result is a found strategy with its cost, how it was produced, and what
// this request spent on it. It is re-exported as pase.Result.
type Result struct {
	// Strategy is the best strategy found.
	Strategy graph.Strategy
	// Cost is the estimated per-step time of the strategy under the model.
	Cost float64
	// Provenance records the solve that produced the strategy — the method
	// that ran ("dp" also when degraded), the cache fingerprint, the beam
	// contract, the model's K and table sharing, and delta re-solve reuse. A
	// cache hit or a ride-along carries its solve's provenance unchanged.
	export.Provenance
	// Timings is where this request's wall time went.
	Timings Timings
	// MaxDepSize is the paper's M for the ordering used ("dp" only).
	MaxDepSize int
	// States is the number of (φ, C) candidates the DP's scan evaluated
	// (core.Stats.States — a function of the cost tables alone, so it
	// repeats exactly), the states a beam pass explored, or the number of
	// proposals an MCMC chain evaluated; zero for baselines.
	States int64
	// Cached reports that this result was served without running a new
	// underlying solve: either a result-cache hit or a ride-along on a
	// concurrent identical request's solve.
	Cached bool
	// FleetFallback reports that this daemon solved a request another fleet
	// member owns because that owner was unreachable (SolvePrepared's
	// fleetFallback). The answer is correct — solves are deterministic — but
	// it is never cached here: peer health is transient state, and caching
	// under the owner's identity would let a flapping peer populate shadow
	// copies cluster-wide.
	FleetFallback bool
}

// Timings is where a request's wall time went, each span stamped once where
// it runs: Total from SolvePrepared on, Model around the cost-model build,
// Elim around the dead-end elimination every dp and beam solve runs (mcmc
// and the baselines run none), and the kernel's stages. A cache hit or a
// ride-along carries Total only.
type Timings struct {
	Total time.Duration `json:"total_ns"`
	Model time.Duration `json:"model_ns"`
	Elim  time.Duration `json:"elim_ns"`
	core.StageTimes
}

// noCache reports that this result must not enter the result cache: it was
// degraded under transient queue pressure (the exact answer is still
// reachable once pressure subsides), or solved as a fleet fallback for an
// unreachable owner (the owner's LRU is this fingerprint's home).
// OOM-degraded results ARE cached — see DegradeReasonOOM.
func (r *Result) noCache() bool {
	return r.DegradeReason == DegradeReasonPressure || r.FleetFallback
}

// clone returns an independent copy whose strategy the caller may mutate.
func (r *Result) clone() *Result {
	out := *r
	out.Strategy = r.Strategy.Clone()
	return &out
}

// deltaEntry is one retained dp solve, keyed by the solve's topology/shape
// fingerprint (deltaKey): the DP snapshot (every cost and choice table under
// its content key) and the checks of the elimination it ran over, without
// that elimination's model. A later request under the same key hands the
// checks to its own elimination and re-solves from the snapshot.
type deltaEntry struct {
	checks *cost.Elimination
	snap   *core.Snapshot
}

// doSolve performs one underlying solve behind panic isolation, and holds
// the only method dispatch: a direct baseline evaluation (baselines price one
// fixed strategy and never need a model), or a cold build of the request's
// model followed by the method's search. mcmc searches the full model (its
// default data-parallel seed is not one of the eliminated model's
// strategies); dp, beam and both degrade rungs search the model dead-end
// elimination leaves, which keeps every optimum, and a dp request hands its
// delta base's checks to that elimination. The dp leg carries the degradation ladder: a
// non-empty degradeReason (queue pressure observed at admission) routes it
// straight to the bounded beam solve, and an ErrOOM from the exact DP lands
// there with DegradeReasonOOM.
func (p *Planner) doSolve(ctx context.Context, req Request, degradeReason string) (res *Result, err error) {
	defer guard(p, &res, &err)
	if err := p.cfg.FaultPlan.Fire(ctx, pressure.SiteSolve); err != nil {
		return nil, err
	}
	method := req.Opts.method()
	var model, elim time.Duration
	if strategies.IsBaselineMethod(method) {
		res, err = runBaseline(ctx, req.G, req.Spec, method)
	} else {
		start := time.Now()
		var m *cost.Model
		if m, err = p.buildModel(ctx, req); err != nil {
			return nil, err
		}
		model = time.Since(start)
		var (
			key      canon.Fingerprint
			ent      *deltaEntry
			base, el *cost.Elimination
		)
		if method == "dp" && p.deltas != nil {
			key = deltaKey(m.G, req.Opts)
			p.mu.Lock()
			if ent, _ = p.deltas.Get(key); ent != nil {
				base = ent.checks
			}
			p.mu.Unlock()
		}
		if method != "mcmc" {
			start = time.Now()
			if el, err = cost.Eliminate(ctx, m, base); err != nil {
				return nil, err
			}
			elim = time.Since(start)
		}
		switch {
		case method == "mcmc":
			res, err = runMCMC(ctx, m, req.Opts)
		case method == "beam":
			res, err = p.runBeam(ctx, el.Model, req.Opts)
		case degradeReason != "":
			res, err = p.runDegraded(ctx, el.Model, req.Opts, degradeReason)
		default:
			if err = p.cfg.FaultPlan.Fire(ctx, pressure.SiteDP); err == nil {
				res, err = p.runDP(ctx, m, el, key, ent, req.Opts)
			}
			if err != nil && errors.Is(err, core.ErrOOM) && p.cfg.DegradeBeamWidth > 0 {
				res, err = p.runDegraded(ctx, el.Model, req.Opts, DegradeReasonOOM)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	res.Method, res.Timings.Model, res.Timings.Elim = method, model, elim
	return res, nil
}

// dpSeq builds the vertex ordering a dp request solves under.
func dpSeq(m *cost.Model, opts Options) *seq.Sequence {
	if opts.BreadthFirst {
		return seq.BFS(m.G)
	}
	return seq.Generate(m.G)
}

// dpResult lifts a core DP result into the planner's Result shape. The
// exact DP proves optimality by construction; beam callers overwrite Exact
// with what the solve established.
func dpResult(r *core.Result) *Result {
	return &Result{
		Strategy:   r.Strategy,
		Cost:       r.Cost,
		Provenance: export.Provenance{Exact: true, ModelInfo: r.Stats.ModelInfo},
		Timings:    Timings{StageTimes: r.Stats.Stages},
		MaxDepSize: r.Stats.MaxDepSize,
		States:     r.Stats.States,
	}
}

// runBeam runs the anytime bounded-width DP over a built model. Beam solves
// always run cold: the incremental re-solve path (runDP) retains and diffs
// exact DP snapshots, and a width-W frontier is not a meaningful delta base.
func (p *Planner) runBeam(ctx context.Context, m *cost.Model, opts Options) (*Result, error) {
	br, err := core.SolveBeam(ctx, m, dpSeq(m, opts), core.BeamOptions{
		Options: core.Options{
			MaxTableEntries: opts.MaxTableEntries,
			Workers:         opts.Workers,
		},
		Width:     opts.BeamWidth,
		GapTarget: opts.GapTarget,
	})
	if err != nil {
		return nil, err
	}
	res := dpResult(&br.Result)
	res.Gap = br.Gap
	res.Exact = br.Exact
	res.BeamWidth = opts.BeamWidth
	p.mu.Lock()
	p.stats.BeamSolves++
	p.stats.LastGap = br.Gap
	p.mu.Unlock()
	return res, nil
}

// runDegraded is the degradation ladder's landing: a single bounded-width
// beam pass at Config.DegradeBeamWidth in place of the exact DP, marked on
// the Result so callers and caches can tell. A single pass (no refinement
// loop) because degradation exists to answer fast — under queue pressure or
// after an ErrOOM — not to chase the gap.
func (p *Planner) runDegraded(ctx context.Context, m *cost.Model, opts Options, reason string) (*Result, error) {
	opts.BeamWidth = p.cfg.DegradeBeamWidth
	opts.GapTarget = -1
	res, err := p.runBeam(ctx, m, opts)
	if err != nil {
		return nil, err
	}
	res.Degraded = true
	res.DegradeReason = reason
	p.mu.Lock()
	p.stats.Degraded++
	p.mu.Unlock()
	return res, nil
}

// deltaKey fingerprints the solve shape an incremental re-solve requires two
// requests to share: the graph's topology (node count and the exact edge
// list with input slots — what pins the vertex ordering, the dependent sets,
// and the edge indexing), the memory budget, and the ordering choice.
// Everything content-level — node attributes, the machine, the enumeration
// policy — is deliberately excluded: content is the delta, and it enters the
// class fingerprints the DP's table keys are made of, so a machine or policy
// change moves every key and the re-solve re-fills every table.
func deltaKey(g *graph.Graph, opts Options) canon.Fingerprint {
	w := canon.NewWriter()
	w.Label("pase.delta-key/v1")
	w.Int(g.Len())
	edges := g.Edges()
	w.Len(len(edges))
	for _, uv := range edges {
		w.Int(uv[0])
		w.Int(uv[1])
		w.Int(g.InputIndex(uv[0], uv[1]))
	}
	budget := opts.MaxTableEntries
	if budget <= 0 {
		budget = core.DefaultMaxTableEntries
	}
	w.I64(budget)
	w.Bool(opts.BreadthFirst)
	return w.Sum()
}

// runDP is the exact dp solve over el, m's elimination: ordering, admission
// and the dependent-set DP over el's model. Admission is the full model's
// sizing pre-pass (core.Admit), so the exact-or-degraded fate of a request
// does not move with what elimination removes; the DP's answer is the full
// model's bit for bit. Solved cold by a planner with incremental re-solve
// off. Otherwise each solve's DP snapshot is retained under key, and when ent
// (the entry cached under key) is set, core.Resolve keeps every table of its
// snapshot whose content key is unchanged and fills the rest — byte-identical
// to the cold solve it replaces, and never more work. A re-solve fails only
// where the cold solve would, so its error is the request's.
func (p *Planner) runDP(ctx context.Context, m *cost.Model, el *cost.Elimination, key canon.Fingerprint, ent *deltaEntry, opts Options) (*Result, error) {
	coreOpts := core.Options{
		MaxTableEntries: opts.MaxTableEntries,
		Workers:         opts.Workers,
	}
	// A delta base shares the request's topology and ordering choice (the
	// delta key), so its ordering is the one dpSeq would build.
	var sq *seq.Sequence
	if ent != nil {
		sq = ent.snap.Seq()
	} else {
		sq = dpSeq(m, opts)
	}
	if err := core.Admit(m, sq, coreOpts); err != nil {
		return nil, err
	}
	var (
		r    *core.Result
		snap *core.Snapshot
		err  error
	)
	switch {
	case p.deltas == nil:
		r, err = core.Solve(ctx, el.Model, sq, coreOpts)
	case ent != nil:
		r, snap, err = core.Resolve(ctx, el.Model, ent.snap, nil, coreOpts)
	default:
		r, snap, err = core.SolveRetain(ctx, el.Model, sq, coreOpts)
	}
	if err != nil {
		return nil, err
	}
	res := dpResult(r)
	if snap != nil {
		res.DeltaResolve = ent != nil
		p.mu.Lock()
		p.deltas.Put(key, &deltaEntry{checks: el.Checks(), snap: snap})
		if res.DeltaResolve {
			p.stats.DeltaResolves++
		}
		p.mu.Unlock()
	}
	return res, nil
}

// runMCMC runs the FlexFlow-substitute chain over a built model, seeded by
// the request's MCMCInit baseline (data parallelism by default).
func runMCMC(ctx context.Context, m *cost.Model, opts Options) (*Result, error) {
	initStrat, err := strategies.ForMethod(opts.mcmcInit(), m.G, m.P())
	if err != nil {
		return nil, fmt.Errorf("planner: mcmc init: %w", err)
	}
	init, err := m.IdxFromStrategy(initStrat)
	if err != nil {
		return nil, fmt.Errorf("planner: mcmc init strategy not enumerable under the request's policy: %w", err)
	}
	r, err := mcmc.Search(ctx, m, init, opts.MCMC)
	if err != nil {
		return nil, err
	}
	return &Result{
		Strategy:   m.StrategyFromIdx(r.BestIdx),
		Cost:       r.BestCost,
		Provenance: export.Provenance{ModelInfo: m.Info()},
		States:     int64(r.Iters),
	}, nil
}

// runBaseline prices a fixed baseline strategy directly from the graph and
// machine — no enumeration, no tables, microseconds of work.
func runBaseline(ctx context.Context, g *graph.Graph, spec machine.Spec, method string) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	s, err := strategies.ForMethod(method, g, spec.Devices)
	if err != nil {
		return nil, err
	}
	c, err := cost.EvalStrategy(g, spec, s)
	if err != nil {
		return nil, err
	}
	return &Result{Strategy: s, Cost: c}, nil
}
