package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"pase/internal/canon"
	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/export"
	"pase/internal/planner"
	"pase/internal/seq"
)

// exactCold and beamDeep share one shape: every op builds a fresh planner and
// sends it a fixed list of requests, so every cache starts empty and the
// kernel does the work.

var exactCold = workload{
	name:      "exact_cold",
	why:       "Table I column (4 paper models, p=32, exact DP) through a fresh planner: core.Solve ~88%, cold model builds ~10%, every cache missed; kernel work shows here, cache and serving work must not",
	opsPerSec: 1.0,
	start: func(e env, _ int) (runner, error) {
		return newColdRunner(e, exactSlots())
	},
	trace: func(e env) (*traceResult, error) { return coldTrace(e, exactSlots(), traceExactExtras) },
}

var beamDeep = workload{
	name:      "beam_deep",
	why:       "gptdeep:12 at p=32, where exact DP runs out of memory: one beam pass at W=8 then W=32, fresh planner; core.SolveBeam >95%; only here can cost_vs_lower_bound move, exact-kernel work must not show",
	opsPerSec: 0.72,
	start: func(e env, _ int) (runner, error) {
		return newColdRunner(e, beamSlots())
	},
	trace: func(e env) (*traceResult, error) { return coldTrace(e, beamSlots(), traceBeamExtras) },
}

// coldSlot is one request of a cold op.
type coldSlot struct {
	model string
	p     int
	opts  planner.Options
}

func (s coldSlot) key() string {
	k := registryKey(s.model, s.p)
	if s.opts.Method == "beam" {
		k += fmt.Sprintf("/beam%d", s.opts.BeamWidth)
	}
	return k
}

func (s coldSlot) request() (planner.Request, error) { return registryRequest(s.model, s.p, s.opts) }

func exactSlots() []coldSlot {
	var slots []coldSlot
	for _, m := range paperModels {
		slots = append(slots, coldSlot{model: m, p: 32})
	}
	return slots
}

func beamSlots() []coldSlot {
	var slots []coldSlot
	for _, w := range []int{8, 32} {
		slots = append(slots, coldSlot{model: "gptdeep:12", p: 32, opts: planner.Options{Method: "beam", BeamWidth: w, GapTarget: -1}})
	}
	return slots
}

// shuffled returns the slots in the seed's order.
func shuffled[T any](seed int64, slots []T) []T {
	out := append([]T(nil), slots...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// warmupOps is how many unmeasured ops end every set-up.
const warmupOps = 2

type coldRunner struct {
	slots []coldSlot
	chk   *checker
	// live is the last op's planner, kept so heap_retained_mb sees what one
	// planner's caches hold after an op.
	live *planner.Planner
}

func newColdRunner(e env, slots []coldSlot) (*coldRunner, error) {
	chk, err := newChecker()
	if err != nil {
		return nil, err
	}
	return &coldRunner{slots: coldOrder(e.seed, slots), chk: chk}, nil
}

// coldOrder is the seed's order of a cold op's slots. Only the first two are
// shuffled: the planner keeps the snapshots of its last two exact solves, so
// the slots that end the op decide what heap_retained_mb and peak_rss_mb
// see, and those must not depend on the seed. exact_cold so always ends on
// rnnlm and transformer, in Table I's order; beam_deep has only two slots
// and retains no snapshot.
func coldOrder(seed int64, slots []coldSlot) []coldSlot {
	return append(shuffled(seed, slots[:2]), slots[2:]...)
}

func (r *coldRunner) setup() error {
	r.live = nil
	for i := 0; i < warmupOps; i++ {
		// Check failures recur in the window, where they are counted.
		r.op(-1)
	}
	return nil
}

func (r *coldRunner) op(int) (opSample, error) {
	ctx := context.Background()
	reqs := make([]planner.Request, len(r.slots))
	results := make([]*planner.Result, len(r.slots))
	var err error
	s := timed(selfCPU, func() {
		pl := planner.New(planner.Config{})
		for i, sl := range r.slots {
			if reqs[i], err = sl.request(); err != nil {
				return
			}
			if results[i], err = pl.Solve(ctx, reqs[i]); err != nil {
				err = fmt.Errorf("%s: %w", sl.key(), err)
				return
			}
		}
		r.live = pl
	})
	// A fresh planner in a fresh process starts on an empty heap; here the
	// previous op's garbage would decide when this op's collections fall,
	// and with them peak_rss_mb.
	runtime.GC()
	if err != nil {
		return s, err
	}
	var errs []error
	for i, sl := range r.slots {
		errs = append(errs, r.chk.check(sl.key(), fromResult(reqs[i], results[i])))
	}
	return s, errors.Join(errs...)
}

func (r *coldRunner) finish() (endState, error) {
	rss, err := peakRSSMB(os.Getpid())
	end := endState{peakRSSMB: rss, heapRetainedMB: heapRetainedMB()}
	runtime.KeepAlive(r.live)
	end.costRatios, end.gapRatios = r.chk.ratios()
	return end, err
}

func (r *coldRunner) close() {}

// coldTraceOps is how many ops each pass of a cold workload's slice holds.
const coldTraceOps = 3

// coldStats is what the traced pass keeps of each slot's solve.
type coldStats struct {
	core  core.Stats
	gap   float64
	bytes int
}

// coldTrace replays a cold workload layer by layer: the calls planner.Solve
// makes on a miss, each under its own span.
func coldTrace(e env, slots []coldSlot, extras func(t *traceResult, stats map[string]coldStats) error) (*traceResult, error) {
	ctx := context.Background()
	slots = coldOrder(e.seed, slots)
	t := newTraceResult()
	stats := map[string]coldStats{}
	var failure error
	t.slice(coldTraceOps, func(tr *tracer, _ int) {
		tr.op(func() {
			// One op's planner builds each model once; so does the replay.
			store := cost.NewClassStore(0)
			built := map[canon.Fingerprint]*cost.Model{}
			for _, sl := range slots {
				st, err := coldPipeline(ctx, tr, sl, store, built)
				if err != nil && failure == nil {
					failure = fmt.Errorf("%s: %w", sl.key(), err)
				}
				stats[sl.key()] = st
			}
		})
	})
	if failure != nil {
		return nil, failure
	}

	t.set("models.build_graph_us", us(typical(t.spans, "models.build_graph")))
	t.set("canon.fingerprint_us", us(typical(t.spans, "canon.fingerprint")))
	t.set("seq.generate_us", us(typical(t.spans, "seq.generate")))
	t.set("export.encode_us", us(typical(t.spans, "export.encode")))
	var bytesOut, maxDep float64
	for _, st := range stats {
		bytesOut += float64(st.bytes) / float64(len(stats))
		maxDep = max(maxDep, float64(st.core.MaxDepSize))
	}
	t.set("export.bytes_out", bytesOut)
	t.set("seq.max_dep_size", maxDep)
	return t, extras(t, stats)
}

// coldPipeline is one request on a planner whose caches miss.
func coldPipeline(ctx context.Context, tr *tracer, sl coldSlot, store *cost.ClassStore, built map[canon.Fingerprint]*cost.Model) (coldStats, error) {
	key := sl.key()
	var (
		req     planner.Request
		modelFP canon.Fingerprint
		sq      *seq.Sequence
		res     *core.Result
		st      coldStats
		err     error
	)
	tr.do("models.build_graph", key, func() { req, err = sl.request() })
	if err != nil {
		return st, err
	}
	tr.do("canon.fingerprint", key, func() { modelFP, _ = planner.Fingerprints(req) })
	m := built[modelFP]
	if m == nil {
		tr.do("cost.build", key, func() {
			m, err = cost.NewModelWith(ctx, req.G, req.Spec, req.Opts.Policy, cost.BuildOptions{Store: store})
		})
		if err != nil {
			return st, err
		}
		built[modelFP] = m
	}
	tr.do("seq.generate", key, func() { sq = seq.Generate(req.G) })
	opts := core.Options{Workers: 1}
	if sl.opts.Method == "beam" {
		tr.do("core.beam", key, func() {
			var br *core.BeamResult
			br, err = core.SolveBeam(ctx, m, sq, core.BeamOptions{Options: opts, Width: sl.opts.BeamWidth, GapTarget: sl.opts.GapTarget})
			if err == nil {
				res, st.gap = &br.Result, br.Gap
			}
		})
	} else {
		// The default planner retains the snapshot for delta re-solves.
		tr.do("core.dp", key, func() { res, _, err = core.SolveRetain(ctx, m, sq, opts) })
	}
	if err != nil {
		return st, err
	}
	st.core = res.Stats
	tr.do("export.encode", key, func() {
		var doc *export.Document
		var buf bytes.Buffer
		if doc, err = export.FromStrategy(sl.model, req.G, res.Strategy, req.Spec.Devices, res.Cost); err == nil {
			err = doc.Write(&buf)
		}
		st.bytes = buf.Len()
	})
	return st, err
}

// traceExactExtras adds what only exact_cold measures: the Transformer
// p=32 kernel and cold-build numbers, and the parallel fill.
func traceExactExtras(t *traceResult, stats map[string]coldStats) error {
	const tf = "transformer@32"
	st := stats[tf].core
	t.set("core.dp_ms", ms(median(durations(t.spans, "core.dp", tf))))
	t.set("core.dp_states", float64(st.States))
	t.set("core.dp_peak_live_entries", float64(st.PeakLiveEntries))
	t.set("cost.build_cold_ms", ms(median(durations(t.spans, "cost.build", tf))+median(durations(t.spans, "cost.build", "inceptionv3@32"))))
	t.set("cost.table_mb", float64(st.TableBytes)/(1<<20))
	t.set("cost.vertex_classes", float64(st.VertexClasses))
	t.set("cost.k_effective", float64(st.KEffective))
	pruned := 0
	for _, s := range stats {
		pruned += s.core.PrunedConfigs
	}
	t.set("cost.pruned_configs", float64(pruned))

	overhead, err := plannerOverhead()
	if err != nil {
		return err
	}
	t.set("planner.overhead_ms", ms(overhead))

	// The parallel fill, reported once and gated nowhere: on two contended
	// cores its time is the least repeatable number the solver has.
	ctx := context.Background()
	req, err := registryRequest("transformer", 32, planner.Options{})
	if err != nil {
		return err
	}
	m, err := cost.NewModelWith(ctx, req.G, req.Spec, req.Opts.Policy, cost.BuildOptions{})
	if err != nil {
		return err
	}
	sq := seq.Generate(req.G)
	var w2 []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := core.Solve(ctx, m, sq, core.Options{Workers: runtime.NumCPU()}); err != nil {
			return err
		}
		w2 = append(w2, float64(time.Since(t0)))
	}
	t.set("core.dp_w2_ms", ms(median(w2)))
	return nil
}

// overheadSamples is how many cold AlexNet solves each side of
// plannerOverhead times.
const overheadSamples = 100

// plannerOverhead is what a cold planner.Solve costs beyond the layer calls
// it makes (ns): flights, caches, the goroutine hop, the result copy. It is
// measured on AlexNet at p=32, whose whole solve takes 2 ms; on the
// Transformer the same difference drowns in the kernel's run-to-run noise.
func plannerOverhead() (float64, error) {
	ctx := context.Background()
	sl := coldSlot{model: "alexnet", p: 32}
	req, err := sl.request()
	if err != nil {
		return 0, err
	}
	var whole, calls []float64
	for i := 0; i < overheadSamples; i++ {
		pl := planner.New(planner.Config{})
		t0 := time.Now()
		if _, err := pl.Solve(ctx, req); err != nil {
			return 0, err
		}
		whole = append(whole, float64(time.Since(t0)))

		tr := newTracer()
		tr.op(func() {
			_, err = coldPipeline(ctx, tr, sl, cost.NewClassStore(0), map[canon.Fingerprint]*cost.Model{})
		})
		if err != nil {
			return 0, err
		}
		calls = append(calls, perOp(tr.spans, func(n string) bool {
			return n == "canon.fingerprint" || n == "cost.build" || n == "seq.generate" || n == "core.dp"
		})[0])
	}
	return median(whole) - median(calls), nil
}

// degradeSamples is how many times the out-of-memory ladder is timed.
const degradeSamples = 3

// traceBeamExtras adds what only beam_deep measures: the two widths, and the
// ladder from an exact solve that runs out of memory onto one beam pass.
func traceBeamExtras(t *traceResult, stats map[string]coldStats) error {
	for _, w := range []int{8, 32} {
		key := fmt.Sprintf("gptdeep:12@32/beam%d", w)
		t.set(fmt.Sprintf("core.beam_ms_w%d", w), ms(median(durations(t.spans, "core.beam", key))))
		t.set(fmt.Sprintf("core.beam_states_w%d", w), float64(stats[key].core.States))
		t.set(fmt.Sprintf("core.beam_gap_w%d", w), stats[key].gap)
	}
	t.set("cost.build_cold_ms", ms(typical(t.spans, "cost.build")))

	ctx := context.Background()
	var ladder []float64
	for i := 0; i < degradeSamples; i++ {
		req, err := registryRequest("gptdeep:3", 64, planner.Options{})
		if err != nil {
			return err
		}
		pl := planner.New(planner.Config{DegradeBeamWidth: 16})
		t0 := time.Now()
		res, err := pl.Solve(ctx, req)
		if err != nil {
			return fmt.Errorf("gptdeep:3@64 on the degradation ladder: %w", err)
		}
		if !res.Degraded || res.DegradeReason != planner.DegradeReasonOOM {
			return fmt.Errorf("gptdeep:3@64: want an answer degraded by %q, got degraded=%v reason=%q", planner.DegradeReasonOOM, res.Degraded, res.DegradeReason)
		}
		ladder = append(ladder, float64(time.Since(t0)))
	}
	t.set("planner.degrade_oom_ms", ms(median(ladder)))
	return nil
}
