package planner

// First-class Compare: the paper's evaluation is a *comparison* — the DP
// strategy against data parallelism, the expert strategies, and the
// FlexFlow-style MCMC search (Table II, Fig. 6). Compare runs every method
// on one (graph, machine) through the planner's cached, cancellable request
// path, simulates each winner's training step once, and reports the paper's
// Fig. 6 metric: simulated speedup over data parallelism.

import (
	"context"
	"errors"
	"fmt"

	"pase/internal/graph"
	"pase/internal/machine"
	"pase/internal/sim"
	"pase/internal/strategies"
)

// CompareRequest asks for all (or a chosen subset of) solve methods on one
// graph and machine.
type CompareRequest struct {
	G    *graph.Graph
	Spec machine.Spec
	// Opts carries the shared solve options (policy, memory budget, MCMC
	// tuning). Opts.Method is ignored: Compare sets it per entry.
	Opts Options
	// Batch is the simulated samples per training step, used only for the
	// reported throughput — speedups are step-time ratios, so they are
	// batch-invariant. Zero means 1.
	Batch int64
	// Family, when set, adds the "expert:<family>" entry and seeds the MCMC
	// chain with that expert strategy (the paper seeds FlexFlow's search
	// with the experts); when empty, MCMC starts from data parallelism and
	// no expert entry is run.
	Family string
	// Methods overrides the default method list (dataparallel, the expert
	// when Family is set, mcmc, beam when a beam width resolves — from
	// Opts.BeamWidth or the planner's DefaultBeamWidth — and dp). Order is
	// preserved in Entries.
	Methods []string
}

// CompareEntry is one method's outcome within a Comparison.
type CompareEntry struct {
	// Method is the method this entry ran.
	Method string
	// Result is the planner result (nil when Err is set). Cached and
	// Fingerprint report whether the serving layer had it already.
	Result *Result
	// Step is the simulated training step of the found strategy.
	Step sim.Result
	// Speedup is the simulated step-time speedup over the data-parallel
	// baseline — the paper's Fig. 6 y-axis. 1.0 for the baseline itself;
	// zero when this entry or the baseline failed.
	Speedup float64
	// Err is this entry's failure, if any; other entries still run.
	Err error
}

// Comparison is the paper's method comparison for one (graph, machine).
type Comparison struct {
	// Baseline names the method speedups are measured against.
	Baseline string
	// Entries holds one outcome per requested method, in request order.
	Entries []CompareEntry
}

// Compare runs every requested method on one graph through the planner —
// each entry is a full Solve: fingerprinted, cached, singleflighted — and
// simulates each found strategy's training step. Per-method failures land in
// their entry; Compare itself fails only on an invalid request or when ctx
// is cancelled (the error of the entry that observed the cancellation).
//
// The data-parallel baseline is always solved, even when Methods omits it,
// because every speedup is relative to it; it only appears as an entry when
// requested.
func (p *Planner) Compare(ctx context.Context, req CompareRequest) (*Comparison, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.G == nil {
		return nil, errors.New("planner: compare: nil graph")
	}
	methods := req.Methods
	if len(methods) == 0 {
		methods = []string{"dataparallel"}
		if req.Family != "" {
			methods = append(methods, "expert:"+req.Family)
		}
		methods = append(methods, "mcmc")
		// The beam column — the paper-style quality-vs-latency row — only
		// makes sense when a width resolves; an unbounded beam would just
		// repeat the dp entry.
		if req.Opts.BeamWidth > 0 || p.cfg.DefaultBeamWidth > 0 {
			methods = append(methods, "beam")
		}
		methods = append(methods, "dp")
	}
	for _, m := range methods {
		// ValidateMethod accepts "" as the Options.Method zero value, but an
		// explicit list entry must name its method.
		if m == "" {
			return nil, errors.New(`planner: compare: empty method in explicit list (use "dp")`)
		}
		if err := ValidateMethod(m); err != nil {
			return nil, fmt.Errorf("planner: compare: %w", err)
		}
	}
	batch := req.Batch
	if batch <= 0 {
		batch = 1
	}

	// The methods are independent, so the solves fan out through the batch
	// worker pool instead of queueing behind the slowest entry: compare
	// latency is max(mcmc, dp), not their sum. Each entry that needs a cost
	// model builds its own, which costs milliseconds against the searches.
	reqs := make([]Request, len(methods))
	for i, method := range methods {
		opts := req.Opts
		opts.Method = method
		if method == "mcmc" && req.Family != "" {
			opts.MCMCInit = "expert:" + req.Family
		}
		reqs[i] = Request{G: req.G, Spec: req.Spec, Opts: opts}
	}
	items := p.SolveBatch(ctx, reqs)

	cmp := &Comparison{Baseline: "dataparallel", Entries: make([]CompareEntry, len(methods))}
	for i, method := range methods {
		entry := &cmp.Entries[i]
		entry.Method = method
		if items[i].Err != nil {
			if ctx.Err() != nil {
				return nil, items[i].Err
			}
			entry.Err = items[i].Err
			continue
		}
		entry.Result = items[i].Result
		var err error
		entry.Step, err = sim.Step(req.G, entry.Result.Strategy, req.Spec, batch)
		if err != nil {
			entry.Result = nil
			entry.Err = err
		}
	}

	// The baseline step every speedup is measured against: reuse the
	// requested entry's simulation when present, otherwise price the
	// data-parallel strategy directly (it is a fixed strategy — no search).
	var base sim.Result
	haveBase := false
	for i := range cmp.Entries {
		if cmp.Entries[i].Method == cmp.Baseline && cmp.Entries[i].Err == nil && cmp.Entries[i].Result != nil {
			base = cmp.Entries[i].Step
			haveBase = true
			break
		}
	}
	if !haveBase {
		if s, err := strategies.ForMethod(cmp.Baseline, req.G, req.Spec.Devices); err == nil {
			if st, err := sim.Step(req.G, s, req.Spec, batch); err == nil {
				base = st
				haveBase = true
			}
		}
	}
	if haveBase {
		for i := range cmp.Entries {
			if cmp.Entries[i].Err == nil && cmp.Entries[i].Result != nil {
				cmp.Entries[i].Speedup = sim.SpeedupOf(cmp.Entries[i].Step, base)
			}
		}
	}
	return cmp, nil
}
