package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// metricDef names one metric; BENCHMARK.json lists the same names, units and
// directions, and a unit test holds the two together.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse (0 for per-layer metrics, which have none).
	bound float64
}

// endToEnd is what a caller of the planner or the daemon sees. Every
// workload reports all of them, measured with tracing off.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"throughput_ops", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"heap_retained_mb", "MB", "lower", 0.05},
	{"cost_vs_dataparallel", "ratio", "lower", 1e-6},
	{"cost_vs_lower_bound", "ratio", "lower", 1e-6},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what the traced slice of a workload reports, one value per
// metric. A layer the workload's slice never calls reports 0: serve_hits has
// no core.* time because a hit never reaches the kernel.
var perLayer = []metricDef{
	{name: "models.build_graph_us", unit: "us", better: "lower"},
	{name: "canon.fingerprint_us", unit: "us", better: "lower"},
	{name: "spec.load_ms", unit: "ms", better: "lower"},
	{name: "spec.bytes_in", unit: "bytes", better: "lower"},
	{name: "planner.hit_us", unit: "us", better: "lower"},
	{name: "planner.overhead_ms", unit: "ms", better: "lower"},
	{name: "planner.result_hit_ratio", unit: "ratio", better: "higher"},
	{name: "planner.delta_share", unit: "ratio", better: "higher"},
	{name: "planner.snapshot_mb", unit: "MB", better: "lower"},
	{name: "planner.degrade_oom_ms", unit: "ms", better: "lower"},
	{name: "pressure.acquire_us", unit: "us", better: "lower"},
	{name: "cost.build_cold_ms", unit: "ms", better: "lower"},
	{name: "cost.build_warm_ms", unit: "ms", better: "lower"},
	{name: "cost.table_mb", unit: "MB", better: "lower"},
	{name: "cost.vertex_classes", unit: "count", better: "lower"},
	{name: "cost.k_effective", unit: "count", better: "lower"},
	{name: "cost.pruned_configs", unit: "count", better: "higher"},
	{name: "cost.store_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cost.store_mb", unit: "MB", better: "lower"},
	{name: "seq.generate_us", unit: "us", better: "lower"},
	{name: "seq.max_dep_size", unit: "count", better: "lower"},
	{name: "core.dp_ms", unit: "ms", better: "lower"},
	{name: "core.dp_states", unit: "count", better: "lower"},
	{name: "core.dp_peak_live_entries", unit: "count", better: "lower"},
	{name: "core.dp_w2_ms", unit: "ms", better: "lower"},
	{name: "core.beam_ms_w8", unit: "ms", better: "lower"},
	{name: "core.beam_ms_w32", unit: "ms", better: "lower"},
	{name: "core.beam_states_w8", unit: "count", better: "lower"},
	{name: "core.beam_states_w32", unit: "count", better: "lower"},
	{name: "core.beam_gap_w8", unit: "ratio", better: "lower"},
	{name: "core.beam_gap_w32", unit: "ratio", better: "lower"},
	{name: "core.resolve_ms", unit: "ms", better: "lower"},
	{name: "core.resolve_states", unit: "count", better: "lower"},
	{name: "core.resolve_dirty_share", unit: "ratio", better: "lower"},
	{name: "core.retain_ms", unit: "ms", better: "lower"},
	{name: "export.encode_us", unit: "us", better: "lower"},
	{name: "export.bytes_out", unit: "bytes", better: "lower"},
	{name: "pased.hit_ms", unit: "ms", better: "lower"},
	{name: "pased.spec_hit_ms", unit: "ms", better: "lower"},
	{name: "pased.handler_overhead_us", unit: "us", better: "lower"},
	{name: "fleet.forward_ms", unit: "ms", better: "lower"},
	{name: "fleet.forwarded_share", unit: "ratio", better: "lower"},
	{name: "fleet.retries", unit: "count", better: "lower"},
	{name: "fleet.fallbacks", unit: "count", better: "lower"},
	{name: "harness.core_share", unit: "ratio", better: "higher"},
	{name: "harness.unattributed_share", unit: "ratio", better: "lower"},
	{name: "harness.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "harness.alloc_mb_per_op", unit: "MB", better: "lower"},
	{name: "harness.latency_tail_ms", unit: "ms", better: "lower"},
}

// env is what one run of one workload is given.
type env struct {
	seed    int64
	seconds float64
}

// workload is one of the four fixed request patterns. All are closed loop
// with one client.
type workload struct {
	name, why string
	// opsPerSec is the workload's rate on the machine the benchmark was
	// defined on. Op counts are fixed from it and from --seconds, never from
	// the clock, so every count and quality metric repeats exactly.
	opsPerSec float64
	start     func(e env, ops int) (runner, error)
	trace     func(e env) (*traceResult, error)
}

var workloads = []workload{exactCold, beamDeep, serveHits, sweepEdit}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner is one workload being measured.
type runner interface {
	// setup discards what an earlier setup left and builds the workload's
	// state from nothing, through the warm-up ops.
	setup() error
	// op runs measured op i, times the part a client would wait for, and
	// checks the outputs.
	op(i int) (opSample, error)
	// finish reads the end-of-window state and runs the whole-window checks.
	finish() (endState, error)
	close()
}

// opSample is the client's view of one op; cpu is the CPU time the
// process(es) running the solver spent on it.
type opSample struct{ wall, cpu time.Duration }

// timed measures f against the wall clock and the given CPU clock.
func timed(cpu func() time.Duration, f func()) opSample {
	c0, t0 := cpu(), time.Now()
	f()
	return opSample{wall: time.Since(t0), cpu: cpu() - c0}
}

type endState struct {
	peakRSSMB, heapRetainedMB float64
	// costRatios holds cost ÷ data-parallel cost, and gapRatios 1 + Gap, of
	// each distinct request of the workload.
	costRatios, gapRatios []float64
}

// setupRepeats is how many times a run sets the workload up from nothing;
// setup_s is their median.
const setupRepeats = 3

// The window is cut into targetBatches equal batches when it holds that many
// ops; rounding the batch size down to whole ops never leaves fewer than
// minBatches.
const (
	targetBatches = 15
	minBatches    = 12
)

// windowCap stops a window that runs this many times longer than --seconds,
// at a batch boundary: the driver's time budget outranks the op count.
const windowCap = 1.5

// plan fixes how many ops the window holds and how they are batched.
type plan struct{ ops, perBatch int }

func planFor(opsPerSec, seconds float64) plan {
	target := max(1, int(math.Round(opsPerSec*seconds)))
	per := max(1, target/targetBatches)
	return plan{ops: target / per * per, perBatch: per}
}

// result is what one run reports.
type result struct {
	metrics           map[string]float64
	attempted, failed int
	// errs are the first few check failures, for the operator.
	errs []string
}

func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// measure runs one workload with tracing off and reports every end-to-end
// metric.
func measure(w workload, e env) (*result, error) {
	pl := planFor(w.opsPerSec, e.seconds)
	r, err := w.start(e, pl.ops)
	if err != nil {
		return nil, err
	}
	defer r.close()

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	res := &result{metrics: map[string]float64{}}
	var wallMs, cpuMs []float64
	runtime.GC()
	deadline := time.Now().Add(time.Duration(windowCap * e.seconds * float64(time.Second)))
	for i := 0; i < pl.ops; i++ {
		if i%pl.perBatch == 0 && i > 0 && time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "%s: window cut at %d of %d ops: %.1fx --seconds elapsed\n", w.name, i, pl.ops, windowCap)
			break
		}
		s, err := r.op(i)
		res.attempted++
		if err != nil {
			res.fail(fmt.Errorf("op %d: %w", i, err))
		}
		wallMs = append(wallMs, float64(s.wall)/1e6)
		cpuMs = append(cpuMs, float64(s.cpu)/1e6)
	}
	end, err := r.finish()
	if err != nil {
		res.fail(err)
	}

	m := res.metrics
	m["latency_p50_ms"] = median(wallMs)
	m["throughput_ops"] = batchMedian(wallMs, pl.perBatch, func(b []float64) float64 { return float64(len(b)) / (sum(b) / 1e3) })
	m["cpu_ms_per_op"] = batchMedian(cpuMs, pl.perBatch, func(b []float64) float64 { return sum(b) / float64(len(b)) })
	m["peak_rss_mb"] = end.peakRSSMB
	m["heap_retained_mb"] = end.heapRetainedMB
	m["cost_vs_dataparallel"] = geomean(end.costRatios)
	m["cost_vs_lower_bound"] = geomean(end.gapRatios)
	m["setup_s"] = median(setups)
	tv, tp, tn := tail(wallMs)
	fmt.Fprintf(os.Stderr, "%s: %d ops in batches of %d, harness.latency_tail_ms p%.1f = %.3f ms over %d samples\n",
		w.name, res.attempted, pl.perBatch, tp, tv, tn)
	return res, nil
}

// traceResult is what the traced slice of a workload reports.
type traceResult struct {
	result
	spans []span
}

// set records a per-layer metric. Only a listed metric is ever printed, so
// setting any other name is a bug.
func (t *traceResult) set(name string, v float64) {
	for _, d := range perLayer {
		if d.name == name {
			t.metrics[name] = v
			return
		}
	}
	panic("benchmark: per-layer metric " + name + " is not listed in perLayer")
}

func newTraceResult() *traceResult {
	return &traceResult{result: result{metrics: map[string]float64{}}}
}

// slice runs the same ops twice, untraced and traced by turns so that drift
// in the machine's speed falls on both alike, and records what only the pair
// can give: the tracing overhead, the allocation per op and the latency tail
// of the untraced ops, and the attribution shares of the traced ones. body
// is called 2*ops times, with i counting on across all calls, and wraps its
// op in tr.op.
func (t *traceResult) slice(ops int, body func(tr *tracer, i int)) {
	var plain, traced []float64
	var alloc float64
	tr := newTracer()
	for i := 0; i < ops; i++ {
		a0, t0 := totalAllocMB(), time.Now()
		body(nil, 2*i)
		plain = append(plain, float64(time.Since(t0))/1e6)
		alloc += totalAllocMB() - a0
		t0 = time.Now()
		body(tr, 2*i+1)
		traced = append(traced, float64(time.Since(t0))/1e6)
	}
	t.spans = tr.spans
	t.attempted += ops
	t.set("harness.trace_overhead_share", sum(traced)/sum(plain)-1)
	t.set("harness.alloc_mb_per_op", alloc/float64(ops))
	tv, _, _ := tail(plain)
	t.set("harness.latency_tail_ms", tv)
	t.set("harness.unattributed_share", unattributed(tr.spans))
	t.set("harness.core_share", share(tr.spans, func(n string) bool {
		return n == "core.dp" || n == "core.beam" || n == "core.resolve"
	}))
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }
