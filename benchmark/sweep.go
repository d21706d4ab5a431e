package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/planner"
	"pase/internal/seq"
)

var sweepEdit = workload{
	name:      "sweep_edit",
	why:       "one long-lived planner; op = edit one Transformer node, re-solve at p=32 (delta re-solve), build its model at p=2..16, re-request the base (hit): core.Resolve, class store, LRU inserts; not core.Solve",
	opsPerSec: 7.0,
	start:     func(e env, ops int) (runner, error) { return newSweepRunner(e, ops) },
	trace:     sweepTrace,
}

const (
	sweepModel = "transformer"
	sweepP     = 32
	// sweepNode is the node whose cost an edit scales: one attention output
	// projection, so the delta dirties about a sixth of the DP tables.
	sweepNode = "enc0_self_wo"
	// sweepGoldens is how many edits have a checked-in golden cost.
	sweepGoldens = 160
)

// sweepModelPs are the device counts the edited graph's model is built at.
var sweepModelPs = []int{2, 4, 8, 16}

// editFactor is the i-th edit's scale on sweepNode's FlopsPerPoint. The set
// of factors is fixed; the seed only orders it, so the distinct requests of a
// window, and with them the quality metrics, do not depend on the seed.
func editFactor(i int) float64 { return 1 + float64(i+1)/4096 }

func editKey(i int) string { return fmt.Sprintf("%s@%d*%d", sweepModel, sweepP, i) }

// editedRequest rebuilds the graph and applies edit i (no edit for i < 0).
func editedRequest(i int) (planner.Request, error) {
	req, err := registryRequest(sweepModel, sweepP, planner.Options{})
	if err != nil || i < 0 {
		return req, err
	}
	for n := range req.G.Nodes {
		if req.G.Nodes[n].Name == sweepNode {
			req.G.Nodes[n].FlopsPerPoint *= editFactor(i)
			return req, nil
		}
	}
	return req, fmt.Errorf("%s has no node %q", sweepModel, sweepNode)
}

type sweepRunner struct {
	order []int
	ps    []int
	chk   *checker
	bm    models.Benchmark
	pl    *planner.Planner
	done  int
}

func newSweepRunner(e env, ops int) (*sweepRunner, error) {
	chk, err := newChecker()
	if err != nil {
		return nil, err
	}
	bm, err := models.ByName(sweepModel)
	if err != nil {
		return nil, err
	}
	return &sweepRunner{order: sweepOrder(e.seed, ops), ps: shuffled(e.seed, sweepModelPs), chk: chk, bm: bm}, nil
}

// sweepOrder is the order a window of ops edits applies edits 0..ops-1 in.
func sweepOrder(seed int64, ops int) []int {
	order := make([]int, ops)
	for i := range order {
		order[i] = i
	}
	return shuffled(seed, order)
}

func (r *sweepRunner) setup() error {
	r.pl = planner.New(planner.Config{})
	r.done = 0
	base, err := editedRequest(-1)
	if err != nil {
		return err
	}
	res, err := r.pl.Solve(context.Background(), base)
	if err != nil {
		return fmt.Errorf("cold base solve: %w", err)
	}
	// Check failures recur in the window, where they are counted.
	r.chk.check(registryKey(sweepModel, sweepP), fromResult(base, res))
	for i := 0; i < warmupOps; i++ {
		// Edits past the window's own, so the window never meets a factor the
		// planner has seen.
		r.edit(len(r.order) + i)
	}
	return nil
}

func (r *sweepRunner) op(i int) (opSample, error) { return r.edit(r.order[i]) }

// edit is one op with edit number idx.
func (r *sweepRunner) edit(idx int) (opSample, error) {
	ctx := context.Background()
	var (
		req, base       planner.Request
		edited, baseRes *planner.Result
		err             error
	)
	s := timed(selfCPU, func() {
		if req, err = editedRequest(idx); err != nil {
			return
		}
		if edited, err = r.pl.Solve(ctx, req); err != nil {
			return
		}
		for _, p := range r.ps {
			if _, err = r.pl.Model(ctx, req.G, machine.GTX1080Ti(p), r.bm.Policy(p)); err != nil {
				return
			}
		}
		if base, err = editedRequest(-1); err != nil {
			return
		}
		baseRes, err = r.pl.Solve(ctx, base)
	})
	if err != nil {
		return s, fmt.Errorf("%s: %w", editKey(idx), err)
	}
	r.done++
	var errs []error
	if !edited.DeltaResolve || edited.Cached {
		errs = append(errs, fmt.Errorf("%s: want a delta re-solve, got delta=%v cached=%v", editKey(idx), edited.DeltaResolve, edited.Cached))
	}
	if !baseRes.Cached {
		errs = append(errs, fmt.Errorf("%s: the base re-request was not served from the result cache", editKey(idx)))
	}
	sol := fromResult(req, edited)
	sol.goldenOptional = idx >= sweepGoldens
	errs = append(errs, r.chk.check(editKey(idx), sol), r.chk.check(registryKey(sweepModel, sweepP), fromResult(base, baseRes)))
	return s, errors.Join(errs...)
}

func (r *sweepRunner) finish() (endState, error) {
	rss, err := peakRSSMB(os.Getpid())
	end := endState{peakRSSMB: rss, heapRetainedMB: heapRetainedMB()}
	end.costRatios, end.gapRatios = r.chk.ratios()
	st := r.pl.Stats()
	if want := int64(r.done); st.DeltaResolves != want || st.DeltaFallbacks != 0 {
		err = errors.Join(err, fmt.Errorf("planner counted %d delta re-solves and %d fall-backs over %d edits", st.DeltaResolves, st.DeltaFallbacks, want))
	}
	return end, err
}

func (r *sweepRunner) close() {}

// sweepTraceOps is how many ops each pass of the slice holds.
const sweepTraceOps = 8

// dirtyVertices is the planner's model diff, from the models' public class
// fingerprints: a vertex is dirty when its class or the class of an incident
// edge changed.
func dirtyVertices(old, new *cost.Model) []bool {
	dirty := make([]bool, new.G.Len())
	for v := range dirty {
		dirty[v] = old.VertexClassFP(v) != new.VertexClassFP(v)
	}
	for e, uv := range new.Edges() {
		if old.EdgeClassFP(e) != new.EdgeClassFP(e) {
			dirty[uv[0]], dirty[uv[1]] = true, true
		}
	}
	return dirty
}

// sweepTrace replays the workload layer by layer against a class store and a
// retained snapshot of its own, then through the planner for the planner's
// counters.
func sweepTrace(e env) (*traceResult, error) {
	ctx := context.Background()
	t := newTraceResult()
	bm, err := models.ByName(sweepModel)
	if err != nil {
		return nil, err
	}
	ps := shuffled(e.seed, sweepModelPs)
	opts := core.Options{Workers: 1}
	store := cost.NewClassStore(0)

	base, err := editedRequest(-1)
	if err != nil {
		return nil, err
	}
	prev, err := cost.NewModelWith(ctx, base.G, base.Spec, base.Opts.Policy, cost.BuildOptions{Store: store})
	if err != nil {
		return nil, err
	}
	var snap *core.Snapshot
	var retain []float64
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		if _, snap, err = core.SolveRetain(ctx, prev, seq.Generate(base.G), opts); err != nil {
			return nil, err
		}
		retain = append(retain, float64(time.Since(t0)))
	}
	t.set("core.retain_ms", ms(median(retain)))

	var failure error
	var resolve core.Stats
	var dirtyShare float64
	before := store.Stats()
	t.slice(sweepTraceOps, func(tr *tracer, i int) {
		tr.op(func() {
			var (
				req planner.Request
				m   *cost.Model
				err error
			)
			fail := func(err error) {
				if failure == nil {
					failure = fmt.Errorf("%s: %w", editKey(i), err)
				}
			}
			tr.do("models.build_graph", "edit", func() { req, err = editedRequest(i) })
			if err != nil {
				fail(err)
				return
			}
			tr.do("canon.fingerprint", "edit", func() { planner.Fingerprints(req) })
			tr.do("cost.build", "p=32", func() {
				m, err = cost.NewModelWith(ctx, req.G, req.Spec, req.Opts.Policy, cost.BuildOptions{Store: store})
			})
			if err != nil {
				fail(err)
				return
			}
			var dirty []bool
			tr.do("planner.diff", "", func() {
				dirty = dirtyVertices(prev, m)
				d, total := snap.EstimateDelta(m, dirty)
				dirtyShare = float64(d) / float64(total)
			})
			tr.do("core.resolve", "", func() {
				var res *core.Result
				if res, snap, err = core.Resolve(ctx, m, snap, dirty, opts); err == nil {
					resolve, prev = res.Stats, m
				}
			})
			if err != nil {
				fail(err)
				return
			}
			for _, p := range ps {
				tr.do("cost.build", fmt.Sprintf("p=%d", p), func() {
					_, err = cost.NewModelWith(ctx, req.G, machine.GTX1080Ti(p), bm.Policy(p), cost.BuildOptions{Store: store})
				})
				if err != nil {
					fail(err)
					return
				}
			}
			// The base re-request is a result-cache hit: the planner builds
			// nothing, but the caller rebuilds and fingerprints the graph.
			tr.do("models.build_graph", "base", func() { req, err = editedRequest(-1) })
			tr.do("canon.fingerprint", "base", func() { planner.Fingerprints(req) })
		})
	})
	if failure != nil {
		return nil, failure
	}
	after := store.Stats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	t.set("models.build_graph_us", us(typical(t.spans, "models.build_graph")))
	t.set("canon.fingerprint_us", us(typical(t.spans, "canon.fingerprint")))
	t.set("cost.build_warm_ms", ms(median(durations(t.spans, "cost.build", "p=32"))))
	t.set("cost.store_hit_ratio", float64(hits)/float64(hits+misses))
	t.set("cost.store_mb", float64(after.Bytes)/(1<<20))
	t.set("core.resolve_ms", ms(median(durations(t.spans, "core.resolve", ""))))
	t.set("core.resolve_states", float64(resolve.States))
	t.set("core.resolve_dirty_share", dirtyShare)

	if err := sweepPlannerPass(t, e); err != nil {
		return nil, err
	}
	mb, err := snapshotMB(base)
	t.set("planner.snapshot_mb", mb)
	return t, err
}

// sweepPlannerPass runs the slice through a real planner: its counters say
// whether every edit took the delta path, and a hit is timed at its front
// door.
func sweepPlannerPass(t *traceResult, e env) error {
	sr, err := newSweepRunner(e, 2*sweepTraceOps)
	if err != nil {
		return err
	}
	if err := sr.setup(); err != nil {
		return err
	}
	before := sr.pl.Stats()
	for i := 0; i < sweepTraceOps; i++ {
		if _, err := sr.op(i); err != nil {
			t.fail(err)
		}
	}
	after := sr.pl.Stats()
	t.set("planner.delta_share", float64(after.DeltaResolves-before.DeltaResolves)/float64(sweepTraceOps))
	base, err := editedRequest(-1)
	if err != nil {
		return err
	}
	var hit []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		res, err := sr.pl.Solve(context.Background(), base)
		hit = append(hit, float64(time.Since(t0)))
		if err != nil || !res.Cached {
			return fmt.Errorf("base re-request: cached=%v err=%v", res != nil && res.Cached, err)
		}
	}
	t.set("planner.hit_us", us(median(hit)))
	return nil
}

// snapshotMB is what the delta cache retains after one base solve: the heap
// a default planner holds minus the heap of one with the delta cache off.
func snapshotMB(base planner.Request) (float64, error) {
	retained := func(cfg planner.Config) (float64, error) {
		pl := planner.New(cfg)
		if _, err := pl.Solve(context.Background(), base); err != nil {
			return 0, err
		}
		mb := heapRetainedMB()
		runtime.KeepAlive(pl)
		return mb, nil
	}
	on, err := retained(planner.Config{})
	if err != nil {
		return 0, err
	}
	off, err := retained(planner.Config{DeltaCacheSize: -1})
	return on - off, err
}
