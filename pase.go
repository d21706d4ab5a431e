// Package pase is the public API of this reproduction of "PaSE:
// Parallelization Strategies for Efficient DNN Training" (Elango, IPDPS
// 2021). It finds efficient hybrid data+parameter parallelization strategies
// for DNN computation graphs via the paper's dependent-set dynamic program,
// and ships the baselines (data parallelism, expert strategies, an MCMC
// search standing in for FlexFlow), the paper's four benchmark models, and a
// cluster step-time simulator for end-to-end comparisons.
//
// Quick start — every solve is one context-first request served by a
// Planner; the Method field selects how the strategy is found ("dp", the
// paper's dynamic program, is the default):
//
//	ctx := context.Background()
//	g := pase.AlexNet(128)
//	res, err := pase.Solve(ctx, pase.SolveRequest{G: g, Spec: pase.GTX1080Ti(32)})
//	// res.Strategy[nodeID] is the per-layer parallelization configuration.
//
// The context cancels a solve mid-flight — a deadline or a disconnected
// client aborts the DP within milliseconds:
//
//	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
//	defer cancel()
//	res, err = pase.Solve(ctx, pase.SolveRequest{G: g, Spec: spec})
//	// err wraps context.DeadlineExceeded if the budget ran out.
//
// Graphs too large for the exact DP get the beam method: a bounded-width DP
// that returns a valid strategy with a sound optimality gap from one pass, or,
// under a positive GapTarget, doubles the width until the gap reaches it. The
// answer depends on the request alone, never on the deadline. The GPT-scale
// decoder stack in the registry is exactly such a graph — the exact DP
// exhausts any realistic table budget on it, while beam answers in a fraction
// of a second:
//
//	gpt, _ := pase.BenchmarkByName("gptdeep:12")
//	res, err = pase.Solve(ctx, pase.SolveRequest{
//		G:    gpt.Build(gpt.Batch),
//		Spec: pase.GTX1080Ti(32),
//		Opts: pase.Options{Method: "beam", BeamWidth: 32},
//	})
//	// res.Cost is realizable by res.Strategy; the true optimum is within
//	// [res.Cost/(1+res.Gap), res.Cost]; res.Exact reports a proven optimum.
//
// The paper's baselines are Methods on the same request path — cached,
// deduplicated, and cancellable like any other solve — and Compare runs them
// all on one graph, reporting each method's simulated speedup over data
// parallelism (the paper's Fig. 6 as a call):
//
//	res, err = pase.Solve(ctx, pase.SolveRequest{
//		G: g, Spec: spec, Opts: pase.Options{Method: "expert:cnn"},
//	})
//	cmp, err := pase.Compare(ctx, pase.CompareRequest{
//		G: g, Spec: spec, Batch: 128, Family: "cnn",
//	})
//	for _, e := range cmp.Entries { // dataparallel, expert:cnn, mcmc, beam, dp
//		fmt.Println(e.Method, e.Result.Cost, e.Speedup)
//	}
//
// Package-level Solve/SolveBatch/Compare are served by a package-default
// Planner: requests are canonically fingerprinted (method included), solved
// results are cached in a bounded LRU, and concurrent identical requests
// share one underlying solve whose flight outlives any single caller's
// cancellation. Every cost model is built cold: a build costs milliseconds
// against the search. For an explicitly sized planner (a long-lived service,
// a sweep):
//
//	pl := pase.NewPlanner(pase.PlannerConfig{ResultCacheSize: 1024})
//	res, err := pl.Solve(ctx, pase.SolveRequest{G: g, Spec: spec}) // solves
//	res, err = pl.Solve(ctx, pase.SolveRequest{G: g, Spec: spec})  // cache hit
//	items := pl.SolveBatch(ctx, []pase.SolveRequest{{G: g1, Spec: spec}, {G: g2, Spec: spec}})
//	fmt.Println(pl.Stats()) // solves, hits, dedup waits, cancellations
//
// A long-lived planner can also run with admission control and graceful
// degradation — the robustness layer behind cmd/pased. MaxInFlight bounds
// concurrent underlying solves, MaxQueue bounds the wait behind them
// (arrivals beyond it fail fast with ErrShed), Options.Priority orders
// waiting requests (higher first; not part of cache identity), and
// DegradeBeamWidth > 0 lets an exact "dp" request that cannot run — table
// budget exceeded, or the queue deep at arrival — come back as a valid
// bounded-width beam strategy instead of an error:
//
//	pl = pase.NewPlanner(pase.PlannerConfig{
//		MaxInFlight: 4, MaxQueue: 64, DegradeBeamWidth: 16,
//	})
//	res, err = pl.Solve(ctx, pase.SolveRequest{
//		G: g, Spec: spec, Opts: pase.Options{Priority: 10},
//	})
//	// errors.Is(err, pase.ErrShed): shed under overload — retry later.
//	// res.Degraded: a degraded beam result; res.DegradeReason says why and
//	// res.Gap still bounds the true optimum in [res.Cost/(1+res.Gap), res.Cost].
//
// The same planner powers cmd/pased, an HTTP JSON daemon serving
// POST /v1/solve, POST /v1/batch, POST /v1/compare, GET /v1/healthz,
// GET /v1/readyz, GET /v1/stats, and GET /metrics (Prometheus text format),
// with every solve tied to its request's context, structured error codes
// (shed → 429, oom → 503, timeout → 504), and optional warm-restart
// snapshots (Planner.SaveSnapshot/LoadSnapshot) that persist the result
// cache across restarts.
//
// Several pased daemons become one logical planner with -peers/-advertise:
// rendezvous hashing over the canonical solve fingerprints assigns every
// solve an owning member, non-owners forward to the owner (bounded jittered
// retries; a failed forward takes the peer out of the ring until background
// health probing sees it ready again), and when the owner is unreachable
// the receiving daemon solves locally, marking the response
// "fleet_fallback" — a dead member costs cache efficiency, never
// availability. See examples/fleet for a ready-to-run three-node fleet
// (docker-compose.yml, or run.sh for three local processes).
//
// Models that are not registry benchmarks enter through the declarative
// ingestion pipeline: a versioned JSON document ("pase-graph/v1") describing
// nodes, edges, machine, and policy is strictly parsed (every problem
// reported as a path-addressed diagnostic), normalized to a canonical form
// (alias resolution, unit normalization, topological node numbering), and
// lowered to the same Graph + Machine the registry models build — so a spec
// solve shares planner cache entries with any equivalent request, however
// the document was ordered or spelled:
//
//	ir, err := pase.LoadSpec(specBytes) // parse + validate + normalize
//	res, err = pase.Solve(ctx, ir.Request(pase.Options{}))
//
// The same document solves from the CLI (pase -spec model.json), lints with
// all diagnostics at once (pase lint model.json), exports from any registry
// model (pase export-spec -model alexnet -gpus 8), and solves over the wire
// (POST /v1/solve with {"spec": {...}} in place of {"model": "..."}).
//
// The baselines and the MCMC search are Methods: Solve is the only way in,
// and every request it serves is fingerprinted.
//
// See DESIGN.md for the solve-pipeline architecture (enumeration → ordering
// → cost tables → dynamic program → back-substitution), its parallelism and
// memory-liveness design, and the serving layer (fingerprinting, cache
// keying, singleflight, cancellation, batch fan-out).
package pase

import (
	"context"
	"io"

	"pase/internal/canon"
	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/export"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/layers"
	"pase/internal/machine"
	"pase/internal/mcmc"
	"pase/internal/memory"
	"pase/internal/models"
	"pase/internal/planner"
	"pase/internal/pressure"
	"pase/internal/seq"
	"pase/internal/sim"
	"pase/internal/spec"
)

// Re-exported core types. The internal packages hold the implementations;
// these aliases are the stable public surface.
type (
	// Graph is a DNN computation graph (paper §II).
	Graph = graph.Graph
	// Node is one layer of a computation graph.
	Node = graph.Node
	// Strategy assigns a parallelization configuration to every node.
	Strategy = graph.Strategy
	// Config is a parallelization configuration: per-iteration-dim split
	// factors with product ≤ p.
	Config = itspace.Config
	// Space is a layer's iteration space.
	Space = itspace.Space
	// Dim is one named iteration-space dimension.
	Dim = itspace.Dim
	// EnumPolicy controls configuration enumeration.
	EnumPolicy = itspace.EnumPolicy
	// Machine describes the cluster (devices, FLOPS, bandwidths).
	Machine = machine.Spec
	// Model binds a graph to a machine and precomputes all cost tables
	// (concurrently, at construction); a built Model is read-only and safe
	// for concurrent use.
	Model = cost.Model
	// StepResult is a simulated training-step outcome.
	StepResult = sim.Result
	// Benchmark is one of the paper's evaluation models plus its metadata.
	Benchmark = models.Benchmark
	// TransformerConfig sizes the Transformer benchmark.
	TransformerConfig = models.TransformerConfig
	// Builder constructs computation graphs layer by layer (conv, FC, LSTM,
	// attention, concat, ...). Access the finished graph via Builder.G.
	Builder = layers.B
)

// NewBuilder returns a graph builder over a fresh computation graph.
func NewBuilder() *Builder { return layers.New() }

// Machine profiles of the paper's two evaluation platforms and a custom one.
var (
	// GTX1080Ti models the paper's first platform: 8 GPUs per node with
	// peer-to-peer PCIe, InfiniBand between nodes.
	GTX1080Ti = machine.GTX1080Ti
	// RTX2080Ti models the second platform: higher compute peak, no PCIe
	// peer-to-peer (lower machine balance, bigger hybrid-parallelism wins).
	RTX2080Ti = machine.RTX2080Ti
	// UniformMachine builds a single-link-class machine from raw numbers.
	UniformMachine = machine.Uniform
	// UniformCluster builds a multi-node single-link-class machine (distinct
	// intra-/inter-node bandwidths) from raw numbers.
	UniformCluster = machine.UniformCluster
	// ParseMachine resolves a machine-spec string ("1080ti", "2080ti", or
	// "uniform:<devices-per-node>:<flops>:<intra-bw>:<inter-bw>") for p
	// devices — the parser behind the CLI -machine flag and the daemon's
	// "machine" field.
	ParseMachine = machine.Parse
)

// The paper's benchmark models.
var (
	// AlexNet builds the 5-conv/3-FC path-graph CNN.
	AlexNet = models.AlexNet
	// InceptionV3 builds the inception CNN with high-degree concat hubs.
	InceptionV3 = models.InceptionV3
	// RNNLM builds the 2-layer LSTM language model (folded RNN vertex).
	RNNLM = models.RNNLM
	// Transformer builds the encoder-decoder NMT model.
	Transformer = models.Transformer
	// BaseTransformer returns the paper's WMT EN→DE configuration.
	BaseTransformer = models.BaseTransformer
	// DenseNet builds the §V dense-graph worst case.
	DenseNet = models.DenseNet
	// VGG16 builds the parameter-heavy path-graph CNN (extra model).
	VGG16 = models.VGG16
	// GNMT builds a GNMT-style attentional encoder-decoder LSTM (the
	// workload the paper's introduction motivates; extra model).
	GNMT = models.GNMT
	// GPTDeep builds the GPT-scale decoder stack with cross-layer shared KV
	// memory — the registry's "graph the exact DP cannot finish" that the
	// anytime beam method is for.
	GPTDeep = models.GPTDeep
	// BaseGPTDeep returns the default GPT-scale decoder configuration at a
	// batch size and layer count.
	BaseGPTDeep = models.BaseGPTDeep
	// Benchmarks lists the paper's four evaluation models.
	Benchmarks = models.Benchmarks
	// BenchmarkByName looks a benchmark up by name; parameterized models
	// ("gptdeep", "gptdeep:<layers>") are parsed from the name.
	BenchmarkByName = models.ByName
)

// Options tunes a solve request. See planner.Options for field
// documentation: Method selects the strategy-search method ("dp" default,
// "beam", "mcmc", "dataparallel", "expert:<family>"), Policy restricts
// enumeration, MaxTableEntries bounds DP memory, BreadthFirst selects the
// naive ordering baseline, Workers sets DP fill parallelism, and
// BeamWidth/GapTarget tune the beam method (frontier width, 32 when zero, and
// the optimality-gap target width doubling works toward: one pass when <= 0).
type Options = planner.Options

// Result is a found strategy with its cost and search statistics, including
// the Method that produced it, where the request's time went (Timings),
// whether the planner served it from cache (Cached, Fingerprint), the
// configuration-space size (KEffective, the paper's K), and the anytime-beam
// quality contract (Gap, Exact, BeamWidth).
type Result = planner.Result

// Timings is where a request's wall time went (see planner.Timings).
type Timings = planner.Timings

// ValidateMethod reports whether a method string is one the solve API
// serves: "", "dp", "beam", "mcmc", "dataparallel", or "expert:<family>".
// Daemons use it to reject malformed wire requests before fingerprinting.
func ValidateMethod(method string) error { return planner.ValidateMethod(method) }

// Planner is the serving layer above the solve pipeline: a bounded LRU of
// solved results keyed by canonical request fingerprints, singleflight
// deduplication of concurrent identical requests, batch fan-out across
// GOMAXPROCS workers, and incremental delta re-solve (a dp solve keeps every
// DP table of the last dp solve whose content key it holds and fills only
// the rest). Safe for concurrent use. Graphs handed to a planner must not be
// mutated afterwards (see Solve).
type Planner = planner.Planner

// PlannerConfig sizes a Planner's result cache and admission control, and
// turns incremental re-solve off (a negative DeltaCacheSize).
type PlannerConfig = planner.Config

// PlannerStats is a snapshot of a Planner's cache, dedup, and delta re-solve
// counters.
type PlannerStats = planner.Stats

// SolveRequest is one solve request: graph, machine and options (including
// the Method).
type SolveRequest = planner.Request

// Fingerprint is a canonical SHA-256 request fingerprint — the planner's
// cache key (Prepared.Fingerprint) and the fleet layer's shard key.
type Fingerprint = canon.Fingerprint

// Prepared is a request the Planner has validated, option-normalized and
// fingerprinted, once (Planner.Prepare); Planner.SolvePrepared solves it.
type Prepared = planner.Prepared

// BatchItem is one outcome of Planner.SolveBatch.
type BatchItem = planner.BatchItem

// CompareRequest asks Compare for all solve methods on one graph.
type CompareRequest = planner.CompareRequest

// Comparison is the paper's method comparison (Table II / Fig. 6): one
// entry per method with its cost, simulated step, and speedup over data
// parallelism.
type Comparison = planner.Comparison

// CompareEntry is one method's outcome within a Comparison.
type CompareEntry = planner.CompareEntry

// NewPlanner returns a Planner sized by cfg (zero value: defaults — 128
// results, and the last dp solve retained as the next one's delta base).
func NewPlanner(cfg PlannerConfig) *Planner { return planner.New(cfg) }

// defaultPlanner serves package-level Solve/SolveBatch/Compare calls so that
// repeated and concurrent identical requests anywhere in a process are
// cached and deduplicated without any setup. It retains no dp solve: a
// delta base held for the life of the process would pin megabytes for
// callers that never send an edit.
var defaultPlanner = planner.New(planner.Config{DeltaCacheSize: -1})

// ErrOOM is returned when the DP tables exceed the memory budget (the
// paper's Table I "OOM" outcome for breadth-first ordering).
var ErrOOM = core.ErrOOM

// ErrTooEntangled is returned when the beam — a beam request, or a dp
// request degraded to one — cannot address a dependent set's table with one
// int64 index: a property of the request, so a retry cannot help. Daemons
// map it to HTTP 422.
var ErrTooEntangled = core.ErrTooEntangled

// ErrShed is returned by a planner running admission control
// (PlannerConfig.MaxInFlight > 0) when a request arrives to a full waiting
// queue: it was rejected immediately — load shedding, never silent
// blocking — and should be retried later. Daemons map it to HTTP 429.
var ErrShed = planner.ErrShed

// ErrSolvePanic is returned when a solve or model build panicked: the
// planner recovers the panic, fails only that request, and keeps serving.
var ErrSolvePanic = planner.ErrSolvePanic

// ErrSnapshotStale is returned by Planner.LoadSnapshot when a warm-restart
// snapshot exists but is unusable (incompatible build or corrupt file); the
// caller should log it and start cold.
var ErrSnapshotStale = planner.ErrSnapshotStale

// FaultPlan injects deterministic failures (ErrOOM, panics, latency) at
// named pipeline sites, for exercising overload and degradation behavior in
// tests and staging. Hand one to PlannerConfig.FaultPlan; nil injects
// nothing.
type FaultPlan = pressure.FaultPlan

// ParseFaultPlan parses a comma-separated fault-injection spec of
// site:kind[:arg] entries (sites solve, dp, model, peer; kinds oom, panic,
// latency, error, drop) — the format behind pased's debug-only -fault-plan
// flag. An empty spec returns (nil, nil).
func ParseFaultPlan(spec string) (*FaultPlan, error) { return pressure.ParseFaultPlan(spec) }

// NewModel binds a graph to a machine under an enumeration policy, building
// all layer and edge cost tables eagerly across a worker pool — one build
// per structural class, with repeated layers/edges aliasing shared tables.
// Model.VertexClasses/EdgeClasses/TableBytes/SharedTableBytes report the
// sharing.
func NewModel(g *Graph, spec Machine, pol EnumPolicy) (*Model, error) {
	return cost.NewModel(g, spec, pol)
}

// Solve serves one request through the package-default Planner — the
// unified, cancellable entry point behind every method ("dp" by default;
// "mcmc", "dataparallel", "expert:<family>" via Options.Method). Identical
// repeated requests are cache hits, concurrent identical requests share one
// underlying solve, and cancelling ctx detaches this caller immediately
// while a shared solve finishes for its remaining waiters (the solve itself
// is aborted when the last waiter cancels). Result.Timings.Total is end to
// end (model construction included); Timings.Model isolates the build share.
// The package-default Planner retains no dp solve, so every dp request
// solves cold; a caller that re-solves edits of one graph makes its own
// NewPlanner, whose next dp solve keeps the tables an edit leaves unchanged.
//
// Do not mutate req.G after calling Solve: the planner caches results and
// class tables under the graph's fingerprints at request time, and a later
// mutation would desynchronize cached state from the fingerprint. Build a
// new graph instead (construction is microseconds; identical content hashes
// to the same cache entries).
func Solve(ctx context.Context, req SolveRequest) (*Result, error) {
	return defaultPlanner.Solve(ctx, req)
}

// SolveBatch solves independent requests concurrently through the
// package-default Planner, sharing its caches and deduplicating identical
// entries; cancelling ctx cancels every entry.
func SolveBatch(ctx context.Context, reqs []SolveRequest) []BatchItem {
	return defaultPlanner.SolveBatch(ctx, reqs)
}

// Compare runs every solve method on one graph through the package-default
// Planner and simulates each result — the paper's Table II / Fig. 6 as one
// cancellable call. Each entry reports the method's cost, simulated training
// step, and speedup over data parallelism.
func Compare(ctx context.Context, req CompareRequest) (*Comparison, error) {
	return defaultPlanner.Compare(ctx, req)
}

// MCMCOptions tunes the "mcmc" method's FlexFlow-style search
// (Options.MCMC).
type MCMCOptions = mcmc.Options

// Simulate runs the cluster step-time simulator for a strategy, the
// substitute for the paper's real-hardware throughput measurements.
func Simulate(g *Graph, s Strategy, spec Machine, batch int64) (StepResult, error) {
	return sim.Step(g, s, spec, batch)
}

// SimulatedSpeedup returns the throughput ratio of strategy s over base on
// the cluster — the paper's Fig. 6 metric (speedup over data parallelism).
func SimulatedSpeedup(g *Graph, s, base Strategy, spec Machine, batch int64) (float64, error) {
	return sim.Speedup(g, s, base, spec, batch)
}

// OrderingStats reports the paper's Fig. 5 ordering quality metrics: M under
// GENERATESEQ and under breadth-first ordering, plus the max configuration
// count K for p devices.
func OrderingStats(g *Graph, spec Machine, pol EnumPolicy) (genM, bfM, maxK int, err error) {
	m, err := cost.NewModel(g, spec, pol)
	if err != nil {
		return 0, 0, 0, err
	}
	return seq.Generate(g).MaxDepSize(), seq.BFS(g).MaxDepSize(), m.MaxK(), nil
}

// Footprint is a per-device memory estimate (paper §II: tensors + parameters
// + communication buffers).
type Footprint = memory.Footprint

// MemoryFootprint estimates the per-device memory a strategy needs,
// making the paper's "minimizing time indirectly minimizes space" argument
// checkable.
func MemoryFootprint(g *Graph, s Strategy) (Footprint, error) {
	return memory.Estimate(g, s)
}

// StrategyDocument is the JSON interchange form of a strategy, for hand-off
// to execution frameworks (Mesh-TensorFlow / GShard style, paper §VI).
type StrategyDocument = export.Document

// ExportStrategy serializes a strategy for an execution framework.
func ExportStrategy(model string, g *Graph, s Strategy, devices int, costSeconds float64) (*StrategyDocument, error) {
	return export.FromStrategy(model, g, s, devices, costSeconds)
}

// ExportResult is ExportStrategy for a solve's result: the document carries
// its strategy and cost and what the result records of how it was solved.
func ExportResult(model string, g *Graph, res *Result, devices int) (*StrategyDocument, error) {
	doc, err := ExportStrategy(model, g, res.Strategy, devices, res.Cost)
	if err != nil {
		return nil, err
	}
	doc.Provenance = res.Provenance
	return doc, nil
}

// ImportStrategy parses a strategy document and validates it against the
// graph.
func ImportStrategy(r io.Reader, g *Graph) (Strategy, error) {
	doc, err := export.Read(r)
	if err != nil {
		return nil, err
	}
	return doc.ToStrategy(g)
}

// HeterogeneousMachine combines device pools using the paper's §V
// weakest-node bottleneck rule.
func HeterogeneousMachine(specs ...Machine) (Machine, error) {
	return machine.Heterogeneous(specs...)
}

// Declarative graph ingestion (the pase-graph/v1 wire format).
type (
	// SpecFile is a pase-graph/v1 document (ExportSpec's output): nodes,
	// edges, machine, and policy in their wire form, before normalization.
	SpecFile = spec.File
	// SpecIR is a normalized, lowered spec: the canonical Graph plus machine
	// and policy, ready to solve (SpecIR.Request) and fingerprint-compatible
	// with equivalent programmatic requests (SpecIR.ModelFingerprint).
	SpecIR = spec.IR
	// SpecDiagnostic is one path-addressed problem with a spec document,
	// e.g. {Path: "nodes[3].flops_per_point", Msg: "must be finite and >= 0"}.
	SpecDiagnostic = spec.Diagnostic
	// SpecError carries every diagnostic a spec pipeline stage collected —
	// all problems in one pass, so one lint round trip fixes a document.
	SpecError = spec.Error
)

// SpecVersion is the spec wire-format version this build reads and writes.
const SpecVersion = spec.Version

// LoadSpec runs the full ingestion pipeline — strict parse, semantic
// validation, canonical normalization, lowering — and returns the solvable
// IR. On failure the error is a *SpecError listing every problem found,
// path-addressed.
func LoadSpec(data []byte) (*SpecIR, error) { return spec.Load(data) }

// ExportSpec converts a programmatically built graph (a registry model, a
// Builder graph) to its pase-graph/v1 document form, with node ids pinned so
// the document round-trips to a byte-identical fingerprint. machineSpec is a
// ParseMachine preset string; batch is display metadata.
func ExportSpec(name string, g *Graph, machineSpec string, gpus int, pol EnumPolicy, batch int64) (*SpecFile, error) {
	return spec.FromGraph(name, g, machineSpec, gpus, pol, batch)
}
