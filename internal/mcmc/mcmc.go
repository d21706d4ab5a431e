// Package mcmc implements a Markov-Chain Monte-Carlo strategy search over
// the PaSE search space — our substitute for FlexFlow's MCMC-based execution
// optimizer (Jia et al. 2018), which the paper compares against.
//
// Like FlexFlow, the search starts from a caller-supplied initial candidate
// (the paper seeds it with expert strategies, per FlexFlow §6.2), proposes a
// random configuration change to a random layer, and accepts with the
// Metropolis criterion. The stop rule matches the paper's: terminate when
// the search cannot improve the best discovered strategy for half the search
// time, or after a hard iteration cap (250,000 in the paper). Because the
// method is a meta-heuristic it can get stuck in local minima and return
// sub-optimal strategies — exactly the behaviour the paper's Fig. 6
// comparison exposes.
package mcmc

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"pase/internal/canon"
	"pase/internal/cost"
)

// beta is the Metropolis inverse temperature applied to relative cost deltas:
// a worse move is accepted with probability exp(−beta·Δ/current).
const beta = 40

// Options tunes the search.
type Options struct {
	// Seed makes the chain deterministic.
	Seed int64
	// MaxIters is the hard iteration cap (paper: 250,000). Zero selects the
	// default.
	MaxIters int
	// MinIters guards the no-improvement stop from firing immediately.
	MinIters int
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 250_000
	}
	if o.MinIters <= 0 {
		o.MinIters = 2_000
	}
	return o
}

// CanonicalEncode writes the options that determine the chain's result into a
// canonical fingerprint stream. Fields are normalized through the package
// defaults first, so a zero Options and the explicit defaults hash
// identically — the same request identity the planner's cache needs.
func (o Options) CanonicalEncode(w *canon.Writer) {
	o = o.withDefaults()
	w.Label("mcmc.options/v1")
	w.I64(o.Seed)
	w.Int(o.MaxIters)
	w.F64(beta) // in the stream: cached keys and snapshots hash these bytes
	w.Int(o.MinIters)
}

// Result reports the best strategy the chain discovered.
type Result struct {
	// BestIdx is the best strategy found, as configuration indices.
	BestIdx []int
	// BestCost is F(G, φ) of BestIdx.
	BestCost float64
	// Iters is how many proposals were evaluated before stopping.
	Iters int
	// Accepted counts accepted proposals.
	Accepted int
}

// Search runs the chain from the initial strategy (configuration indices;
// it is not mutated). Cancellation is polled every 1024 proposals — a chain
// iteration is a handful of table reads, so cancelling mid-search returns
// ctx's error within microseconds without per-proposal overhead.
func Search(ctx context.Context, m *cost.Model, init []int, opts Options) (*Result, error) {
	n := m.G.Len()
	if len(init) != n {
		return nil, fmt.Errorf("mcmc: initial strategy covers %d of %d nodes", len(init), n)
	}
	for v, ci := range init {
		if ci < 0 || ci >= m.K(v) {
			return nil, fmt.Errorf("mcmc: node %d initial config index %d out of range", v, ci)
		}
	}
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	cur := append([]int(nil), init...)
	curCost := m.EvalIdx(cur)
	best := append([]int(nil), cur...)
	bestCost := curCost
	lastImprove := 0

	done := ctx.Done()
	res := &Result{}
	for it := 1; it <= opts.MaxIters; it++ {
		if done != nil && it&1023 == 0 {
			select {
			case <-done:
				return nil, fmt.Errorf("mcmc: search cancelled: %w", context.Cause(ctx))
			default:
			}
		}
		res.Iters = it
		v := rng.Intn(n)
		if m.K(v) < 2 {
			continue
		}
		newC := rng.Intn(m.K(v))
		if newC == cur[v] {
			continue
		}
		delta := m.NodeDelta(cur, v, cur[v], newC)
		accept := delta <= 0
		if !accept {
			rel := delta / math.Max(curCost, 1)
			accept = rng.Float64() < math.Exp(-beta*rel)
		}
		if accept {
			cur[v] = newC
			curCost += delta
			res.Accepted++
			if curCost < bestCost {
				bestCost = curCost
				copy(best, cur)
				lastImprove = it
			}
		}
		// Paper stop rule: no improvement for half the search time.
		if it > opts.MinIters && it > 2*lastImprove {
			break
		}
	}
	// Re-evaluate exactly to shed accumulated floating-point drift.
	res.BestIdx = best
	res.BestCost = m.EvalIdx(best)
	return res, nil
}
