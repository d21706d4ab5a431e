package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/planner"
	"pase/internal/seq"
	"pase/internal/strategies"
)

// paperModels is the Table I column order.
var paperModels = []string{"alexnet", "inceptionv3", "rnnlm", "transformer"}

// registryRequest builds the request the daemon would build for a registry
// model at p devices on the default machine, pinned to the serial fill.
func registryRequest(model string, p int, opts planner.Options) (planner.Request, error) {
	bm, err := models.ByName(model)
	if err != nil {
		return planner.Request{}, err
	}
	spec, err := machine.Parse("1080ti", p)
	if err != nil {
		return planner.Request{}, err
	}
	opts.Policy = bm.Policy(p)
	opts.Workers = 1
	return planner.Request{G: bm.Build(bm.Batch), Spec: spec, Opts: opts}, nil
}

func registryKey(model string, p int) string { return fmt.Sprintf("%s@%d", model, p) }

// costTolerance is how far a re-costed or golden cost may sit from the
// reported one, relative.
const costTolerance = 1e-9

const goldenPath = "benchmark/golden_costs.json"

// goldens are the optimal costs of the benchmark's exact requests, solved
// once through the oracle path (see oracleCost) and checked in.
type goldens map[string]float64

func loadGoldens() (goldens, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	var g goldens
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

// oracleCost solves a request with every reuse mechanism off: no pruning, no
// interning, no class store, no retained snapshot, no arena.
func oracleCost(req planner.Request) (float64, error) {
	ctx := context.Background()
	m, err := cost.NewModelWith(ctx, req.G, req.Spec, req.Opts.Policy, cost.BuildOptions{DisablePruning: true, DisableInterning: true})
	if err != nil {
		return 0, err
	}
	r, err := core.Solve(ctx, m, seq.Generate(req.G), core.Options{Workers: 1})
	if err != nil {
		return 0, err
	}
	return r.Cost, nil
}

// checker holds what the output checks compare against and what the quality
// metrics are computed from: one entry per distinct request, made the first
// time the request is answered.
type checker struct {
	gold goldens
	seen map[string]*answer
}

type answer struct {
	cost, dataParallel, gap float64
}

func newChecker() (*checker, error) {
	gold, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	return &checker{gold: gold, seen: map[string]*answer{}}, nil
}

// solved is one answer as the checks need it, whether it came from the
// planner in process or from the daemon's wire format.
type solved struct {
	g        *graph.Graph
	spec     machine.Spec
	strategy graph.Strategy
	cost     float64
	gap      float64
	exact    bool
	beam     bool
	// goldenOptional marks an exact request outside the checked-in golden
	// set (a sweep edit beyond sweepGoldens); every other exact request
	// must have its golden cost.
	goldenOptional bool
}

// check holds an answer to the request named key against the first answer
// seen for it. The first answer itself is re-costed from its strategy and,
// when exact, held against the golden cost; a beam answer must carry a
// finite, sound gap and beat data parallelism.
func (c *checker) check(key string, s solved) error {
	if first, ok := c.seen[key]; ok {
		if s.cost != first.cost {
			return fmt.Errorf("%s: cost %v differs from the first answer %v", key, s.cost, first.cost)
		}
		return nil
	}
	recost, err := cost.EvalStrategy(s.g, s.spec, s.strategy)
	if err != nil {
		return fmt.Errorf("%s: re-costing the returned strategy: %w", key, err)
	}
	if relDiff(recost, s.cost) > costTolerance {
		return fmt.Errorf("%s: reported cost %v, strategy re-costs to %v", key, s.cost, recost)
	}
	dp, err := cost.EvalStrategy(s.g, s.spec, strategies.DataParallel(s.g, s.spec.Devices))
	if err != nil {
		return fmt.Errorf("%s: costing data parallelism: %w", key, err)
	}
	if s.beam {
		if math.IsNaN(s.gap) || math.IsInf(s.gap, 0) || s.gap < 0 {
			return fmt.Errorf("%s: beam gap %v is not finite and non-negative", key, s.gap)
		}
		if !s.exact && s.gap <= 0 {
			return fmt.Errorf("%s: inexact beam answer with gap %v", key, s.gap)
		}
		if s.cost > dp {
			return fmt.Errorf("%s: beam cost %v is worse than data parallelism %v", key, s.cost, dp)
		}
	} else if want, ok := c.gold[key]; ok {
		if relDiff(want, s.cost) > costTolerance {
			return fmt.Errorf("%s: cost %v, golden cost %v", key, s.cost, want)
		}
	} else if !s.goldenOptional {
		return fmt.Errorf("%s: no golden cost in %s", key, goldenPath)
	}
	c.seen[key] = &answer{cost: s.cost, dataParallel: dp, gap: s.gap}
	return nil
}

// ratios returns, over the distinct requests answered so far and in no
// particular order, cost ÷ data-parallel cost and 1 + gap.
func (c *checker) ratios() (costRatios, gapRatios []float64) {
	for _, a := range c.seen {
		costRatios = append(costRatios, a.cost/a.dataParallel)
		gapRatios = append(gapRatios, 1+a.gap)
	}
	return costRatios, gapRatios
}

func fromResult(req planner.Request, r *planner.Result) solved {
	return solved{
		g: req.G, spec: req.Spec, strategy: r.Strategy, cost: r.Cost,
		gap: r.Gap, exact: r.Exact, beam: r.Method == "beam",
	}
}
