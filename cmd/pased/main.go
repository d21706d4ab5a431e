// Command pased is the PaSE strategy-serving daemon: an HTTP JSON front end
// over the planner, so a cluster scheduler or training framework can request
// parallelization strategies on demand. Identical requests are served from
// the planner's result cache, concurrent identical requests share one solve,
// a miss builds its cost model cold (no tables outlive a request), and every
// request — /v1/solve, a fleet-forwarded /v1/internal/solve, or an
// item of a /v1/batch fanned out across GOMAXPROCS workers — takes the same
// route (serveOne). A repeat of a body whose answer is cached does no graph
// work: hash → memo → lookup → bytes. Anything else: decode → lower/Prepare →
// lookup → fleet route | solve → encode, of which a body the request memo
// knows skips the first two. One gotcha follows: a repeat body
// never reaches spec.Load or the model registry — the memo is keyed by the
// body's bytes, which is sound because everything else lowering reads
// (-max-gpus, -default-beam-width) is fixed at boot — so a change to lowering
// shows on a body's first request only; /v1/stats memo_hits / memo_misses say
// which kind a request was.
//
// Every solve is tied to its request's context: a disconnected client or the
// -solve-timeout deadline aborts the model build or DP mid-flight within
// milliseconds — unless another identical request is still waiting on the
// same singleflighted solve, in which case it finishes for them. SIGTERM
// drains gracefully: /v1/readyz flips to 503 (so load balancers stop routing
// here), in-flight requests complete (up to -drain-timeout), then remaining
// connections are force-closed, which cancels their solves.
//
// The daemon serves under pressure instead of falling over. -max-inflight
// bounds concurrent underlying solves with a bounded priority queue behind
// them (-max-queue; the wire "priority" field orders waiters, FIFO within a
// priority); arrivals beyond the queue are shed immediately as 429 with a
// Retry-After hint — never silently blocked. -degrade-beam-width enables
// graceful degradation: an exact dp request that cannot run (DP table budget
// exceeded, or the queue at least half full at arrival) is
// served by the anytime bounded-width beam instead — a valid strategy marked
// "degraded": true with a sound optimality gap. Solver panics are isolated
// per request. Errors are structured: {"error": ..., "code": ...} with
// stable codes (shed → 429, oom → 503, timeout → 504, cancelled → 499, a body
// beyond 1 MiB → 413 too_large).
//
// -snapshot-path enables warm restarts: the result cache is checkpointed there
// periodically (-snapshot-interval) and on SIGTERM, and restored on boot
// before the listener starts; stale or corrupt snapshots are discarded with a
// logged warning. After a kill-and-restart, the first repeat request is a
// cache hit.
//
// Usage:
//
//	pased -addr :8555 -solve-timeout 2m
//	curl -s localhost:8555/v1/healthz
//	curl -s -X POST localhost:8555/v1/solve \
//	    -d '{"model":"alexnet","gpus":8,"machine":"1080ti"}'
//	curl -s -X POST localhost:8555/v1/solve \
//	    -d '{"model":"alexnet","gpus":8,"options":{"method":"expert:cnn"}}'
//	curl -s -X POST localhost:8555/v1/solve \
//	    -d '{"model":"gptdeep:12","gpus":32,"options":{"method":"beam","beam_width":32}}'
//	curl -s -X POST localhost:8555/v1/batch \
//	    -d '{"requests":[{"model":"alexnet","gpus":8},{"model":"rnnlm","gpus":16}]}'
//	curl -s -X POST localhost:8555/v1/solve \
//	    -d "{\"spec\": $(cat examples/specs/alexnet.json)}"
//	curl -s -X POST localhost:8555/v1/compare \
//	    -d '{"model":"alexnet","gpus":8}'
//	curl -s localhost:8555/v1/stats
//
// Endpoints:
//
//	POST /v1/solve   — solve one request; returns the strategy as the
//	                   internal/export interchange document plus timing,
//	                   cache, method, and fingerprint metadata. The request
//	                   names a registry "model" or carries an inline "spec"
//	                   (a declarative pase-graph/v1 document with its own
//	                   machine and device count); spec requests normalize to
//	                   the same canonical fingerprints as their programmatic
//	                   twins, so they share cache entries, and invalid specs
//	                   fail as bad_request with a "details" array of
//	                   path-addressed {path, msg} diagnostics.
//	POST /v1/batch   — solve many requests concurrently, each exactly as
//	                   /v1/solve would (fleet routing included); per-item
//	                   errors.
//	POST /v1/compare — run every solve method (or an explicit "methods"
//	                   list) on one model and report each method's cost,
//	                   simulated step, and speedup over data parallelism —
//	                   the paper's Fig. 6 as an endpoint.
//	GET  /v1/healthz — liveness (the process is up; always 200).
//	GET  /v1/readyz  — readiness: a structured {"ready", "peers": [...]}
//	                   body; 503 "draining" once a SIGTERM drain has begun,
//	                   200 otherwise. The peers
//	                   array carries each fleet peer's health (also as
//	                   "breaker": "closed" or "open"; empty on a
//	                   single-node daemon).
//	GET  /v1/stats   — server counters (memo_hits and memo_misses among
//	                   them), the planner block, and the fleet block when
//	                   clustered.
//	GET  /metrics    — every /v1/stats number as a Prometheus series (text
//	                   format 0.0.4) named pase_ + section + json key, the
//	                   section fleet_ in the fleet block and fleet_peer_ with
//	                   a peer label per peer; counters end in _total.
//
//	POST /v1/internal/solve — the peer-to-peer route fleet-forwarded solves
//	                   arrive on; identical to /v1/solve but never
//	                   re-forwards (loop safety), and its solve outlives the
//	                   caller hanging up. Not for external clients.
//
// Fleet mode: -peers + -advertise make N daemons one logical planner.
// Rendezvous hashing over the canonical solve fingerprints assigns each
// solve an owner; non-owners forward (bounded retries, jittered backoff),
// a failed forward takes the peer out of the ring until the background
// health prober sees it ready again, and when the owner is unreachable the
// receiving daemon solves locally, marking the response fleet_fallback —
// peer failure costs cache efficiency, never availability.
//
// Flags size and place a deployment (addresses, peers, cache and queue
// bounds, timeouts, snapshot path). Tuning values no deployment ever set —
// retry counts and backoffs, the degrade depth (half
// of -max-queue), the batch pool width —
// are constants of the packages that own them. A dp answer
// is the optimum under the cost model unless it says "degraded": true.
//
// -debug-addr mounts net/http/pprof on a separate localhost listener so
// production hot-path regressions are diagnosable without exposing profiles
// on the API port.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -debug-addr
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pase"
	"pase/internal/fleet"
)

// solveRequest is the wire form of one solve request. Exactly one of Model
// (with Batch/GPUs/Machine) or Spec names the graph to solve.
type solveRequest struct {
	// Model is a benchmark model name (alexnet, inceptionv3, rnnlm,
	// transformer).
	Model string `json:"model"`
	// Spec is an inline pase-graph/v1 document — the declarative alternative
	// to naming a registry Model. The spec carries its own machine and device
	// count, so it is mutually exclusive with Model, Batch, GPUs, and
	// Machine. Invalid specs fail as bad_request with a "details" array of
	// path-addressed {path, msg} diagnostics.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Batch overrides the model's paper mini-batch size when > 0.
	Batch int64 `json:"batch,omitempty"`
	// GPUs is the device count p.
	GPUs int `json:"gpus"`
	// Machine is a machine-spec string (1080ti, 2080ti, uniform:...);
	// default 1080ti.
	Machine string `json:"machine,omitempty"`
	// Priority orders this request against others waiting for a solve slot
	// under admission control: higher priorities are granted first, FIFO
	// within a priority. It is not part of the request's cache identity.
	// Bounded to [-100, 100]; default 0.
	Priority int `json:"priority,omitempty"`
	// Options tunes the method, enumeration, and the solver; omitted means
	// the DP method under the model's default policy for p.
	Options *solveOptions `json:"options,omitempty"`
}

// solveOptions is the wire form of pase.Options. A zero MaxSplitDims with
// RequireFullDegree false selects the benchmark's default policy for p;
// set any policy field to take manual control.
type solveOptions struct {
	// Method selects the solve method: dp (default), beam (anytime
	// bounded-width DP), mcmc, dataparallel, or expert:<family> with family
	// cnn, rnn, or transformer.
	Method string `json:"method,omitempty"`
	// BeamWidth bounds the beam method's frontier (top-W states per DP
	// table). Omitted or 0 uses the daemon's -default-beam-width; if no
	// width resolves the request runs the exact DP.
	BeamWidth int `json:"beam_width,omitempty"`
	// GapTarget steers beam refinement: > 0 doubles the width until the
	// optimality gap reaches the target (or the solve deadline); 0 refines
	// under the deadline; negative runs a single pass at BeamWidth.
	GapTarget float64 `json:"gap_target,omitempty"`
	// MCMCSeed seeds the mcmc method's chain (deterministic per seed).
	MCMCSeed          int64 `json:"mcmc_seed,omitempty"`
	MaxSplitDims      int   `json:"max_split_dims,omitempty"`
	RequireFullDegree bool  `json:"require_full_degree,omitempty"`
	MaxTableEntries   int64 `json:"max_table_entries,omitempty"`
	BreadthFirst      bool  `json:"breadth_first,omitempty"`
	Workers           int   `json:"workers,omitempty"`
}

// solveResponse is the wire form of one solved strategy.
type solveResponse struct {
	// Strategy is the interchange document (internal/export schema) handed
	// to execution frameworks, fingerprint and method included.
	Strategy    *pase.StrategyDocument `json:"strategy"`
	Method      string                 `json:"method"`
	CostSeconds float64                `json:"cost_seconds"`
	SearchMs    float64                `json:"search_ms"`
	ModelMs     float64                `json:"model_ms"`
	Cached      bool                   `json:"cached"`
	Fingerprint string                 `json:"fingerprint"`
	// States is the work the search did: (φ, C) candidates the exact DP's
	// bound-pruned scan evaluated, beam states explored, or MCMC proposals.
	States     int64 `json:"states"`
	MaxDepSize int   `json:"max_dep_size"`
	// KEffective is the largest per-vertex configuration count the search
	// iterated over — the paper's K.
	KEffective int `json:"k_effective"`
	// VertexClasses / EdgeClasses / TableBytes / SharedTableBytes report
	// the structural sharing of the model behind this solve: distinct
	// vertex and edge cost tables built, the resident table footprint, and
	// the bytes sharing saved versus a per-occurrence build.
	VertexClasses    int   `json:"vertex_classes"`
	EdgeClasses      int   `json:"edge_classes"`
	TableBytes       int64 `json:"table_bytes"`
	SharedTableBytes int64 `json:"shared_table_bytes"`
	// DeltaResolve reports the solve was served incrementally from a
	// retained DP snapshot (only the changed tables re-filled).
	DeltaResolve bool `json:"delta_resolve"`
	// Gap / Exact / BeamWidth report the anytime-beam contract: the true
	// optimum lies in [cost_seconds/(1+gap), cost_seconds]; exact marks
	// proven optimality; beam_width is the frontier width a beam solve
	// resolved to (0 for other methods).
	Gap       float64 `json:"gap"`
	Exact     bool    `json:"exact"`
	BeamWidth int     `json:"beam_width"`
	// Degraded / DegradeReason report that the daemon served this dp request
	// through its graceful-degradation ladder: a valid bounded-width beam
	// strategy (gap/beam_width above carry its quality contract) because the
	// exact solve could not run — "oom" or "pressure".
	Degraded      bool   `json:"degraded"`
	DegradeReason string `json:"degrade_reason,omitempty"`
	// FleetForwarded reports this response was served by the fleet member
	// that owns the request's fingerprint (FleetOwner) rather than the
	// daemon addressed; FleetFallback reports the addressed daemon solved it
	// locally because the owner was unreachable. Both absent on a
	// single-node daemon and for requests the daemon owns itself.
	FleetForwarded bool   `json:"fleet_forwarded,omitempty"`
	FleetFallback  bool   `json:"fleet_fallback,omitempty"`
	FleetOwner     string `json:"fleet_owner,omitempty"`
}

// batchRequest keeps each item as its own JSON: every item is decoded, and
// when another fleet member owns it forwarded, exactly like a /v1/solve body.
type batchRequest struct {
	Requests []json.RawMessage `json:"requests"`
}

// batchError is a failed item's entry in a batch response.
type batchError struct {
	Error string `json:"error,omitempty"`
	// Details carries the path-addressed diagnostics when Error reports an
	// invalid inline spec.
	Details []pase.SpecDiagnostic `json:"details,omitempty"`
}

// batchResponse holds one entry per item, aligned with the request: the body
// /v1/solve would have answered the item with, or its batchError.
type batchResponse struct {
	Results []json.RawMessage `json:"results"`
}

// compareRequest is the wire form of POST /v1/compare: one model, every
// method (or an explicit list).
type compareRequest struct {
	solveRequest
	// Methods overrides the default method list (dataparallel, the model's
	// expert strategy, mcmc, dp).
	Methods []string `json:"methods,omitempty"`
}

// compareEntry is one method's row of a compare response.
type compareEntry struct {
	Method      string  `json:"method"`
	CostSeconds float64 `json:"cost_seconds,omitempty"`
	StepMs      float64 `json:"step_ms,omitempty"`
	Throughput  float64 `json:"throughput,omitempty"`
	// SpeedupVsDP is the simulated step-time speedup over data parallelism —
	// the paper's Fig. 6 metric.
	SpeedupVsDP float64 `json:"speedup_vs_dp,omitempty"`
	SearchMs    float64 `json:"search_ms,omitempty"`
	Cached      bool    `json:"cached,omitempty"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	// Gap / Exact / BeamWidth carry the beam row's quality-vs-latency
	// contract (see solveResponse).
	Gap       float64 `json:"gap,omitempty"`
	Exact     bool    `json:"exact,omitempty"`
	BeamWidth int     `json:"beam_width,omitempty"`
	Error     string  `json:"error,omitempty"`
}

type compareResponse struct {
	Model    string         `json:"model"`
	Devices  int            `json:"devices"`
	Baseline string         `json:"baseline"`
	Entries  []compareEntry `json:"entries"`
}

// server routes HTTP requests to a planner.
type server struct {
	pl           *pase.Planner
	maxGPUs      int
	solveTimeout time.Duration
	start        time.Time
	// served, specSolves and specErrors back daemonStats.
	served, specSolves, specErrors atomic.Int64
	// fleet, when non-nil, makes this daemon a fleet member: solve requests
	// whose fingerprint another member owns are forwarded there (or solved
	// locally as a marked fallback when the owner is unreachable). Set
	// before the listener starts; nil on a single-node daemon.
	fleet *fleet.Client
	// memo resolves a repeated request body to its fingerprint, and to its
	// stored answer, by hash (see requestMemo).
	memo *requestMemo
	// draining marks a begun SIGTERM drain: /v1/readyz reports 503 so load
	// balancers route elsewhere while /v1/healthz stays 200.
	draining atomic.Bool
}

func newServer(pl *pase.Planner, maxGPUs int, solveTimeout time.Duration) *server {
	return &server{pl: pl, maxGPUs: maxGPUs, solveTimeout: solveTimeout, start: time.Now(), memo: newRequestMemo()}
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, http.StatusOK, s.stats()) })
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/compare", s.handleCompare)
	// The internal route is how forwarded solves arrive from peers; its
	// handler never re-forwards (loop safety), whatever the local ring says.
	mux.HandleFunc("POST "+fleet.InternalSolvePath, s.handleInternalSolve)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// solveCtx ties a solve to parent — the request's context, cancelled when
// the client disconnects — and the daemon's per-solve deadline.
func (s *server) solveCtx(parent context.Context) (context.Context, context.CancelFunc) {
	if s.solveTimeout > 0 {
		return context.WithTimeout(parent, s.solveTimeout)
	}
	return context.WithCancel(parent)
}

// encodeJSON is the wire's one encoder — two-space indentation, one trailing
// newline — and so the reference every stored or relayed body must match byte
// for byte.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		log.Printf("pased: encode response: %v", err)
	}
	writeBody(w, status, body)
}

// writeBody sends an already encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		log.Printf("pased: write response: %v", err)
	}
}

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away mid-solve, so no one reads the response — the status only feeds logs
// and metrics.
const statusClientClosedRequest = 499

// apiError is a failed request in wire form: the structured body /v1/solve
// answers with under status, and the error/details a /v1/batch entry carries.
// Codes are stable API: clients branch on them, not on message text.
type apiError struct {
	status  int
	Code    string                `json:"code"`
	Details []pase.SpecDiagnostic `json:"details,omitempty"`
	Error   string                `json:"error"`
}

// write sends the error body. A shed response carries a Retry-After hint —
// the queue bound means the backlog clears within a few solves.
func (e *apiError) write(w http.ResponseWriter) {
	if e.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, e.status, e)
}

// badRequest is a 400; an invalid inline spec additionally carries its
// path-addressed diagnostics as a structured "details" array, so clients can
// surface every problem without parsing the message text.
func badRequest(err error) *apiError {
	e := &apiError{status: http.StatusBadRequest, Code: "bad_request", Error: err.Error()}
	var se *pase.SpecError
	if errors.As(err, &se) {
		e.Details = se.Diags
	}
	return e
}

// readBody reads a request body whole, up to maxBodyBytes. A longer one is
// 413 too_large — the bound is what caps the hashing, decoding and forwarding
// a single request can ask for.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, *apiError) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, &apiError{status: http.StatusRequestEntityTooLarge, Code: "too_large",
				Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return nil, badRequest(fmt.Errorf("read request: %w", err))
	}
	return body, nil
}

// internalError is a plain 500: a failure that is the daemon's own.
func internalError(err error) *apiError {
	return &apiError{status: http.StatusInternalServerError, Code: "internal", Error: err.Error()}
}

// solveError maps a planner error onto an HTTP status and a stable error
// code: a shed request is 429 (retry later, or elsewhere), OOM is 503 (this
// daemon cannot serve the exact solve — with degradation enabled most OOMs
// never surface here), a solve-deadline expiry is a gateway timeout, a
// client-cancelled solve is 499, and an isolated solver panic is a plain 500.
func solveError(err error) *apiError {
	e := internalError(err)
	switch {
	case errors.Is(err, pase.ErrShed):
		e.status, e.Code = http.StatusTooManyRequests, "shed"
	case errors.Is(err, pase.ErrOOM):
		e.status, e.Code = http.StatusServiceUnavailable, "oom"
	case errors.Is(err, context.DeadlineExceeded):
		e.status, e.Code = http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		e.status, e.Code = statusClientClosedRequest, "cancelled"
	case errors.Is(err, pase.ErrSolvePanic):
		e.Code = "panic"
	}
	return e
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

// peerReadiness is one fleet peer's row in the readyz body: its health bit,
// also spelled as Breaker ("closed" when healthy, "open" otherwise) — the
// same view the fleet router uses, so orchestrators and the router never
// disagree.
type peerReadiness struct {
	ID      string `json:"id"`
	Healthy bool   `json:"healthy"`
	Breaker string `json:"breaker"`
}

// ready is the daemon's readiness as /v1/readyz, /v1/stats and /metrics
// report it: not draining.
func (s *server) ready() bool { return !s.draining.Load() }

func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready := s.ready()
	body := map[string]any{"ready": ready}
	status := http.StatusOK
	if !ready {
		status, body["reason"] = http.StatusServiceUnavailable, "draining"
	}
	peers := []peerReadiness{}
	if s.fleet != nil {
		for _, p := range s.fleet.Stats().Peers {
			peers = append(peers, peerReadiness{ID: p.ID, Healthy: p.Healthy, Breaker: p.Breaker})
		}
	}
	body["peers"] = peers
	writeJSON(w, status, body)
}

// daemonStats is the /v1/stats body and all /metrics exports: handleMetrics
// renders it and its planner and fleet blocks by one rule (writeSection).
type daemonStats struct {
	Requests      int64             `json:"requests"`                      // HTTP requests on the routes that solve
	SpecSolves    int64             `json:"spec_solves"`                   // inline-spec solves served, cache hits included
	SpecErrors    int64             `json:"spec_errors"`                   // inline-spec requests rejected by ingestion or the wire bounds
	MemoHits      int64             `json:"memo_hits"`                     // request bodies the memo resolved by hash
	MemoMisses    int64             `json:"memo_misses"`                   // request bodies decoded and lowered in full
	CachedResults int               `json:"cached_results" metric:"gauge"` // results resident in the LRU
	UptimeMs      int64             `json:"uptime_ms" metric:"gauge"`      // time since the daemon started
	Ready         bool              `json:"ready" metric:"gauge"`          // what /v1/readyz reports
	Draining      bool              `json:"draining" metric:"gauge"`       // a SIGTERM drain has begun
	Planner       pase.PlannerStats `json:"planner"`
	Fleet         *fleet.Stats      `json:"fleet,omitempty"` // nil on a single-node daemon
}

// stats snapshots the daemon's counters.
func (s *server) stats() daemonStats {
	st := daemonStats{
		Requests:      s.served.Load(),
		SpecSolves:    s.specSolves.Load(),
		SpecErrors:    s.specErrors.Load(),
		MemoHits:      s.memo.hits.Load(),
		MemoMisses:    s.memo.misses.Load(),
		CachedResults: s.pl.CacheSizes(),
		UptimeMs:      time.Since(s.start).Milliseconds(),
		Ready:         s.ready(),
		Draining:      s.draining.Load(),
		Planner:       s.pl.Stats(),
	}
	if s.fleet != nil {
		fst := s.fleet.Stats()
		st.Fleet = &fst
	}
	return st
}

// toRequest validates and lowers a wire request onto the planner's Request,
// returning the benchmark for the export document and the compare defaults.
func (s *server) toRequest(sr solveRequest) (pase.SolveRequest, pase.Benchmark, error) {
	bm, err := pase.BenchmarkByName(sr.Model)
	if err != nil {
		return pase.SolveRequest{}, pase.Benchmark{}, err
	}
	if sr.GPUs < 1 || sr.GPUs > s.maxGPUs {
		return pase.SolveRequest{}, pase.Benchmark{}, fmt.Errorf("gpus %d out of range [1, %d]", sr.GPUs, s.maxGPUs)
	}
	if sr.Priority < -maxPriority || sr.Priority > maxPriority {
		return pase.SolveRequest{}, pase.Benchmark{}, fmt.Errorf("priority %d out of range [%d, %d]", sr.Priority, -maxPriority, maxPriority)
	}
	batch := bm.Batch
	if sr.Batch > 0 {
		batch = sr.Batch
	}
	mach := sr.Machine
	if mach == "" {
		mach = "1080ti"
	}
	spec, err := pase.ParseMachine(mach, sr.GPUs)
	if err != nil {
		return pase.SolveRequest{}, pase.Benchmark{}, err
	}
	opts := pase.Options{Policy: bm.Policy(sr.GPUs), Priority: sr.Priority}
	if err := applyOptions(&opts, sr.Options); err != nil {
		return pase.SolveRequest{}, pase.Benchmark{}, err
	}
	return pase.SolveRequest{G: bm.Build(batch), Spec: spec, Opts: opts}, bm, nil
}

// applyOptions validates the wire options and lowers them onto opts — shared
// by the registry (model) and declarative (spec) request paths. Bound the
// wire-supplied knobs: this is a shared daemon, and unchecked values reach
// the solver's goroutine spawns and DP memory budget directly. (Model-build
// memory has no budget knob — it is bounded by -max-gpus, which caps the
// configuration counts the eager TL/TX tables are sized by.)
func applyOptions(opts *pase.Options, o *solveOptions) error {
	if o == nil {
		return nil
	}
	if err := pase.ValidateMethod(o.Method); err != nil {
		return err
	}
	if o.Workers < 0 || o.Workers > maxWorkers {
		return fmt.Errorf("workers %d out of range [0, %d]", o.Workers, maxWorkers)
	}
	if o.MaxTableEntries < 0 || o.MaxTableEntries > maxTableEntriesCap {
		return fmt.Errorf("max_table_entries %d out of range [0, %d]", o.MaxTableEntries, int64(maxTableEntriesCap))
	}
	if o.MaxSplitDims < 0 {
		return fmt.Errorf("max_split_dims %d must be >= 0", o.MaxSplitDims)
	}
	if o.MaxSplitDims > 0 || o.RequireFullDegree {
		opts.Policy = pase.EnumPolicy{MaxSplitDims: o.MaxSplitDims, RequireFullDegree: o.RequireFullDegree}
	}
	if o.BeamWidth < 0 || o.BeamWidth > maxBeamWidth {
		return fmt.Errorf("beam_width %d out of range [0, %d]", o.BeamWidth, maxBeamWidth)
	}
	if o.GapTarget > maxGapTarget {
		return fmt.Errorf("gap_target %g out of range (max %g)", o.GapTarget, float64(maxGapTarget))
	}
	opts.Method = o.Method
	opts.MCMC.Seed = o.MCMCSeed
	opts.MaxTableEntries = o.MaxTableEntries
	opts.BreadthFirst = o.BreadthFirst
	opts.Workers = o.Workers
	opts.BeamWidth = o.BeamWidth
	opts.GapTarget = o.GapTarget
	return nil
}

// toSpecRequest lowers an inline-spec wire request through the declarative
// ingestion pipeline onto the planner's Request, returning the display name
// for the export document. The spec document carries its own model, machine,
// and device count, so the registry-selection fields must be absent.
func (s *server) toSpecRequest(sr solveRequest) (pase.SolveRequest, string, error) {
	if sr.Model != "" || sr.Batch != 0 || sr.GPUs != 0 || sr.Machine != "" {
		return pase.SolveRequest{}, "", errors.New(`"spec" is mutually exclusive with "model", "batch", "gpus", and "machine" (the spec carries its own graph, machine, and device count)`)
	}
	if sr.Priority < -maxPriority || sr.Priority > maxPriority {
		return pase.SolveRequest{}, "", fmt.Errorf("priority %d out of range [%d, %d]", sr.Priority, -maxPriority, maxPriority)
	}
	ir, err := pase.LoadSpec(sr.Spec)
	if err != nil {
		return pase.SolveRequest{}, "", err
	}
	if ir.Machine.Devices > s.maxGPUs {
		return pase.SolveRequest{}, "", fmt.Errorf("spec machine has %d gpus, max %d", ir.Machine.Devices, s.maxGPUs)
	}
	opts := pase.Options{Policy: ir.Policy, Priority: sr.Priority}
	if err := applyOptions(&opts, sr.Options); err != nil {
		return pase.SolveRequest{}, "", err
	}
	name := ir.Name
	if name == "" {
		name = "spec"
	}
	return ir.Request(opts), name, nil
}

// toResponse lifts a planner result into the wire form.
func toResponse(req pase.SolveRequest, model string, res *pase.Result) (*solveResponse, error) {
	doc, err := pase.ExportResult(model, req.G, res, req.Spec.Devices)
	if err != nil {
		return nil, err
	}
	return &solveResponse{
		Strategy:         doc,
		Method:           res.Method,
		CostSeconds:      res.Cost,
		SearchMs:         float64(res.SearchTime.Nanoseconds()) / 1e6,
		ModelMs:          float64(res.ModelTime.Nanoseconds()) / 1e6,
		Cached:           res.Cached,
		Fingerprint:      res.Fingerprint,
		States:           res.States,
		MaxDepSize:       res.MaxDepSize,
		KEffective:       res.KEffective,
		VertexClasses:    res.VertexClasses,
		EdgeClasses:      res.EdgeClasses,
		TableBytes:       res.TableBytes,
		SharedTableBytes: res.SharedTableBytes,
		DeltaResolve:     res.DeltaResolve,
		Gap:              res.Gap,
		Exact:            res.Exact,
		BeamWidth:        res.BeamWidth,
		Degraded:         res.Degraded,
		DegradeReason:    res.DegradeReason,
		FleetFallback:    res.FleetFallback,
	}, nil
}

const (
	maxBodyBytes = 1 << 20
	// maxWorkers bounds a request's DP-fill goroutines (results are
	// worker-count invariant, so this only limits resource use).
	maxWorkers = 256
	// maxTableEntriesCap bounds a request's live DP-table budget to ~1.5 GB
	// of nominal entries (Π K per table; the stored quotients take less); the
	// ErrOOM → 503 "oom" path exists precisely because some (model, ordering)
	// pairs need unbounded memory.
	maxTableEntriesCap = int64(1) << 27
	// maxCompareMethods bounds an explicit compare method list; the full
	// default comparison is 5 entries (dataparallel, expert, mcmc, beam, dp).
	maxCompareMethods = 8
	// maxBeamWidth caps the wire-supplied beam frontier width: beyond 64Ki
	// retained states per table the beam approaches the exact DP's memory
	// profile and the width should be left unbounded instead.
	maxBeamWidth = 1 << 16
	// maxGapTarget caps the wire-supplied beam gap target (negatives mean
	// "single pass" and pass through).
	maxGapTarget = 1e6
	// maxPriority bounds the wire-supplied admission priority in both
	// directions; the range is generous — priorities only order waiters.
	maxPriority = 100
)

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.serveSolve(w, r, false)
}

// handleInternalSolve serves fleet-forwarded solves. It is identical to
// /v1/solve except that it NEVER re-forwards: a forwarded request is solved
// here even if this daemon's ring disagrees about ownership, which is what
// makes forwarding loop-free under inconsistent member views.
func (s *server) handleInternalSolve(w http.ResponseWriter, r *http.Request) {
	s.serveSolve(w, r, true)
}

func (s *server) serveSolve(w http.ResponseWriter, r *http.Request, internal bool) {
	s.served.Add(1)
	body, apiErr := readBody(w, r)
	if apiErr != nil {
		apiErr.write(w)
		return
	}
	parent := r.Context()
	if internal {
		// A forwarded solve outlives the peer attempt that carried it: the
		// asker's retry joins the running flight and this daemon caches the
		// answer, instead of each attempt's hang-up cancelling the solve.
		parent = context.WithoutCancel(parent)
	}
	ctx, cancel := s.solveCtx(parent)
	defer cancel()
	out, apiErr := s.serveOne(ctx, body, internal)
	if apiErr != nil {
		apiErr.write(w)
		return
	}
	writeBody(w, http.StatusOK, out)
}

// serveOne is a request's one route through the daemon, whichever endpoint
// carried it, and returns the encoded 200 body. A repeat of a body whose
// answer is still cached does no graph work: hash → memo → lookup → bytes.
// Anything else runs as much of the long route as it needs: decode →
// lower/Prepare (skipped when the memo knows the body) → lookup → fleet
// route | solve → encode. body is the request's own JSON — which is also
// exactly what a fleet forward relays to the owner, whose memo therefore
// knows it too.
// internal marks the peer-to-peer route, which never re-forwards.
func (s *server) serveOne(ctx context.Context, body []byte, internal bool) ([]byte, *apiError) {
	start := time.Now()
	key := sha256.Sum256(body)
	ent, known := s.memo.get(key)
	// prep stays nil until something needs the graph: a body the memo knows
	// is lowered again only to solve it or to encode an answer not yet stored.
	var prep *pase.Prepared
	if !known {
		var apiErr *apiError
		if prep, ent, apiErr = s.lower(body); apiErr != nil {
			return nil, apiErr
		}
		s.memo.put(key, ent)
	}
	served := func(out []byte) ([]byte, *apiError) {
		if ent.isSpec {
			s.specSolves.Add(1)
		}
		return out, nil
	}

	res, inFlight := s.pl.Lookup(ent.fp)
	if res != nil && res == ent.from {
		return served(ent.hitBody(start))
	}
	var fleetOwner string
	if res == nil && !inFlight && s.fleet != nil && !internal {
		// Route only what this daemon cannot already answer: a local cache
		// hit or in-flight identical solve is as good as the owner's copy
		// (results are deterministic), and skipping the hop keeps a degraded
		// fleet's hit latency flat.
		out := s.fleet.Route(ctx, ent.fp, body)
		if out.Decision == fleet.Forwarded {
			if relayed, apiErr, ok := relayForwarded(out); ok {
				if apiErr != nil {
					return nil, apiErr
				}
				return served(relayed)
			}
		}
		if out.Decision != fleet.Local {
			// The owner is unreachable, or answered something unusable:
			// solve here rather than fail.
			fleetOwner = out.Owner
		}
	}
	if prep == nil {
		var apiErr *apiError
		if prep, _, apiErr = s.lower(body); apiErr != nil {
			return nil, apiErr
		}
	}
	hit := res != nil
	if !hit {
		var err error
		if res, err = s.pl.SolvePrepared(ctx, prep, fleetOwner != ""); err != nil {
			return nil, solveError(err)
		}
	}
	resp, err := toResponse(prep.Request(), ent.name, res)
	if err != nil {
		return nil, internalError(err)
	}
	if hit {
		// res is the cache's entry as its solve left it; the request-side
		// fields are this request's.
		resp.Cached, resp.ModelMs, resp.SearchMs = true, 0, msSince(start)
	}
	if resp.FleetFallback {
		resp.FleetOwner = fleetOwner
	}
	out, err := encodeJSON(resp)
	if err != nil {
		return nil, internalError(err)
	}
	if hit {
		s.memo.put(key, ent.withHit(res, out))
	}
	return served(out)
}

// lower is the slow half of the route — decode → validate → lower → Prepare —
// and returns the prepared request with what the memo keeps of it. Only a
// body that gets through all four is ever remembered.
func (s *server) lower(body []byte) (*pase.Prepared, memoEntry, *apiError) {
	var sr solveRequest
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, memoEntry{}, badRequest(fmt.Errorf("decode request: %w", err))
	}
	ent := memoEntry{isSpec: len(sr.Spec) > 0}
	var (
		req pase.SolveRequest
		err error
	)
	if ent.isSpec {
		req, ent.name, err = s.toSpecRequest(sr)
	} else {
		var bm pase.Benchmark
		req, bm, err = s.toRequest(sr)
		ent.name = bm.Name
	}
	if err != nil {
		if ent.isSpec {
			s.specErrors.Add(1)
		}
		return nil, memoEntry{}, badRequest(err)
	}
	prep, err := s.pl.Prepare(req)
	if err != nil {
		// What Solve itself would answer: the planner's own validation.
		return nil, memoEntry{}, solveError(err)
	}
	ent.fp = prep.Fingerprint()
	return prep, ent, nil
}

// bodyEnd is how the wire's encoder closes a response object.
const bodyEnd = "\n}\n"

// relayForwarded lifts the owner's answer into this daemon's own: its solved
// response relayed as the bytes it arrived in, marked with the fleet routing,
// or — for a non-200 the fleet client deemed definitive — its rejection under
// its status. ok is false when the body is not usable (version skew,
// truncation).
func relayForwarded(out fleet.Outcome) (body []byte, apiErr *apiError, ok bool) {
	var err error
	if out.Status == http.StatusOK {
		if body, err = markForwarded(out.Body, out.Owner); err == nil {
			return body, nil, true
		}
	} else {
		apiErr = &apiError{status: out.Status}
		if err = json.Unmarshal(out.Body, apiErr); err == nil && apiErr.Error == "" {
			err = errors.New(`no "error" in the body`)
		}
		if err == nil {
			return nil, apiErr, true
		}
	}
	log.Printf("pased: fleet: unusable %d from %s: %v (solving locally)", out.Status, out.Owner, err)
	return nil, nil, false
}

// markForwarded adds the fleet marks to the owner's encoded 200 body, in
// place. The body is decoded only shallowly — it must be valid JSON carrying a
// strategy document, closed the way the wire's encoder closes it — and the
// document stays the bytes it is. The internal route sets neither mark, and
// both sort after every field it does set, so they go at the end.
func markForwarded(body []byte, owner string) ([]byte, error) {
	var probe struct {
		Strategy json.RawMessage `json:"strategy"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil, err
	}
	if len(probe.Strategy) == 0 || probe.Strategy[0] != '{' {
		return nil, errors.New(`no "strategy" in the body`)
	}
	if !bytes.HasSuffix(body, []byte(bodyEnd)) {
		return nil, errors.New("not in the wire's layout")
	}
	ownerJSON, err := json.Marshal(owner)
	if err != nil {
		return nil, err
	}
	body = append(body[:len(body)-len(bodyEnd)], ",\n  \"fleet_forwarded\": true,\n  \"fleet_owner\": "...)
	body = append(body, ownerJSON...)
	return append(body, bodyEnd...), nil
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.served.Add(1)
	body, apiErr := readBody(w, r)
	if apiErr != nil {
		apiErr.write(w)
		return
	}
	var br batchRequest
	if err := json.Unmarshal(body, &br); err != nil {
		badRequest(fmt.Errorf("decode request: %w", err)).write(w)
		return
	}
	if len(br.Requests) == 0 {
		badRequest(errors.New("batch has no requests")).write(w)
		return
	}
	ctx, cancel := s.solveCtx(r.Context())
	defer cancel()
	// A fixed pool, not a goroutine per item: a 1 MiB body holds tens of
	// thousands of items, and each may become a solve or an outbound peer
	// call.
	entries := make([]json.RawMessage, len(br.Requests))
	var next atomic.Int64
	var wg sync.WaitGroup
	for n := min(runtime.GOMAXPROCS(0), len(entries)); n > 0; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(entries); i = int(next.Add(1)) - 1 {
				out, apiErr := s.serveOne(ctx, br.Requests[i], false)
				if apiErr != nil {
					// A string and diagnostics always marshal.
					out, _ = json.Marshal(batchError{Error: apiErr.Error, Details: apiErr.Details})
				}
				entries[i] = out
			}
		}()
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, batchResponse{Results: entries})
}

func (s *server) handleCompare(w http.ResponseWriter, r *http.Request) {
	s.served.Add(1)
	body, apiErr := readBody(w, r)
	if apiErr != nil {
		apiErr.write(w)
		return
	}
	var cr compareRequest
	if err := json.Unmarshal(body, &cr); err != nil {
		badRequest(fmt.Errorf("decode request: %w", err)).write(w)
		return
	}
	if len(cr.Spec) > 0 {
		badRequest(errors.New(`compare does not accept inline "spec" requests; name a registry "model"`)).write(w)
		return
	}
	if len(cr.Methods) > maxCompareMethods {
		badRequest(fmt.Errorf("methods list has %d entries, max %d", len(cr.Methods), maxCompareMethods)).write(w)
		return
	}
	for _, m := range cr.Methods {
		if m == "" {
			badRequest(errors.New(`empty method in "methods" (use "dp")`)).write(w)
			return
		}
		if err := pase.ValidateMethod(m); err != nil {
			badRequest(err).write(w)
			return
		}
	}
	req, bm, err := s.toRequest(cr.solveRequest)
	if err != nil {
		badRequest(err).write(w)
		return
	}
	batch := bm.Batch
	if cr.Batch > 0 {
		batch = cr.Batch
	}
	ctx, cancel := s.solveCtx(r.Context())
	defer cancel()
	cmp, err := s.pl.Compare(ctx, pase.CompareRequest{
		G:       req.G,
		Spec:    req.Spec,
		Opts:    req.Opts,
		Batch:   batch,
		Family:  bm.Family,
		Methods: cr.Methods,
	})
	if err != nil {
		solveError(err).write(w)
		return
	}
	resp := compareResponse{Model: bm.Name, Devices: req.Spec.Devices, Baseline: cmp.Baseline}
	for _, e := range cmp.Entries {
		we := compareEntry{Method: e.Method}
		if e.Err != nil {
			we.Error = e.Err.Error()
		} else {
			we.CostSeconds = e.Result.Cost
			we.StepMs = e.Step.StepSeconds * 1e3
			we.Throughput = e.Step.Throughput
			we.SpeedupVsDP = e.Speedup
			we.SearchMs = float64(e.Result.SearchTime.Nanoseconds()) / 1e6
			we.Cached = e.Result.Cached
			we.Fingerprint = e.Result.Fingerprint
			we.Gap = e.Result.Gap
			we.Exact = e.Result.Exact
			we.BeamWidth = e.Result.BeamWidth
		}
		resp.Entries = append(resp.Entries, we)
	}
	writeJSON(w, http.StatusOK, resp)
}

// requireLoopback rejects debug-listener addresses that would bind beyond
// localhost (":6060", "0.0.0.0:6060", a public IP, a hostname other than
// localhost).
func requireLoopback(addr string) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("invalid address %q: %w", addr, err)
	}
	if host == "localhost" {
		return nil
	}
	ip := net.ParseIP(host)
	if ip == nil || !ip.IsLoopback() {
		return fmt.Errorf("%q is not a loopback address; the pprof listener serves heap and goroutine dumps and must stay on localhost", addr)
	}
	return nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8555", "listen address")
		resultCache  = flag.Int("result-cache", 256, "solved-result LRU capacity")
		maxGPUs      = flag.Int("max-gpus", 128, "largest accepted device count (cost-model tables grow with p; raise deliberately)")
		beamWidth    = flag.Int("default-beam-width", 32, "beam frontier width for method=beam requests that leave beam_width unset (0 = unbounded: such requests run the exact DP)")
		solveTimeout = flag.Duration("solve-timeout", 2*time.Minute, "per-request solve deadline; the solve is aborted mid-DP when it expires (0 = no deadline)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "how long SIGTERM waits for in-flight requests before force-closing connections (which cancels their solves)")
		debugAddr    = flag.String("debug-addr", "", "optional localhost listen address serving net/http/pprof (e.g. 127.0.0.1:6060); off when empty")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrent underlying solves; requests beyond it queue by priority, and a full queue sheds as 429 (0 = unbounded: admission control off)")
		maxQueue     = flag.Int("max-queue", 0, "max requests waiting for a solve slot before load shedding (0 = default 64; effective only with -max-inflight)")
		degradeWidth = flag.Int("degrade-beam-width", 16, "beam frontier width for degraded dp solves — served when the exact DP exceeds its table budget or the queue is at least half full at arrival (0 = degradation off: OOM surfaces as 503)")
		faultPlan    = flag.String("fault-plan", "", "DEBUG ONLY: fault-injection spec site:kind[:arg],... (sites solve, dp, model, peer; kinds oom, panic, latency, error, drop) for exercising shed/degrade/panic/fleet paths")
		snapPath     = flag.String("snapshot-path", "", "warm-restart snapshot file: restored on boot, checkpointed every -snapshot-interval and on SIGTERM (off when empty)")
		snapEvery    = flag.Duration("snapshot-interval", 5*time.Minute, "periodic checkpoint interval when -snapshot-path is set (0 = checkpoint only on SIGTERM)")

		peers      = flag.String("peers", "", "comma-separated base URLs of the other fleet members (e.g. http://10.0.0.2:8555,http://10.0.0.3:8555); empty = single-node daemon")
		advertise  = flag.String("advertise", "", "this daemon's own base URL as peers reach it (required with -peers; must appear in every peer's -peers list)")
		fleetProbe = flag.Duration("fleet-probe-interval", time.Second, "background peer health-probe period (GET /v1/readyz on every peer); a peer a forward failed on rejoins the ring at its next good probe")
	)
	flag.Parse()
	if *beamWidth < 0 || *beamWidth > maxBeamWidth {
		log.Fatalf("pased: -default-beam-width %d out of range [0, %d]", *beamWidth, maxBeamWidth)
	}
	if *degradeWidth < 0 || *degradeWidth > maxBeamWidth {
		log.Fatalf("pased: -degrade-beam-width %d out of range [0, %d]", *degradeWidth, maxBeamWidth)
	}
	if *maxInflight < 0 || *maxQueue < 0 {
		log.Fatalf("pased: -max-inflight %d / -max-queue %d must be >= 0", *maxInflight, *maxQueue)
	}
	if *fleetProbe < 0 {
		log.Fatalf("pased: -fleet-probe-interval %s must be >= 0 (the prober is how a failed peer rejoins the ring)", *fleetProbe)
	}
	faults, err := pase.ParseFaultPlan(*faultPlan)
	if err != nil {
		log.Fatalf("pased: -fault-plan: %v", err)
	}
	if faults != nil {
		log.Printf("pased: WARNING: fault injection armed (%s) — debug use only", faults)
	}

	if *debugAddr != "" {
		// net/http/pprof registers its handlers on http.DefaultServeMux;
		// serving that mux on a separate opt-in listener keeps profiling off
		// the public API port. Loopback only: heap dumps and goroutine
		// stacks must not be one mistyped flag away from the network.
		if err := requireLoopback(*debugAddr); err != nil {
			log.Fatalf("pased: -debug-addr: %v", err)
		}
		go func() {
			log.Printf("pased: pprof debug listener on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("pased: debug listener: %v", err)
			}
		}()
	}

	pl := pase.NewPlanner(pase.PlannerConfig{
		ResultCacheSize:  *resultCache,
		DefaultBeamWidth: *beamWidth,
		MaxInFlight:      *maxInflight,
		MaxQueue:         *maxQueue,
		DegradeBeamWidth: *degradeWidth,
		FaultPlan:        faults,
	})
	sv := newServer(pl, *maxGPUs, *solveTimeout)
	if *peers != "" {
		if *advertise == "" {
			log.Fatalf("pased: -peers requires -advertise (this daemon's own base URL, its identity in the hash ring)")
		}
		fc, err := fleet.New(fleet.Config{
			Self:          *advertise,
			Peers:         strings.Split(*peers, ","),
			ProbeInterval: *fleetProbe,
			Faults:        faults,
			Logf:          log.Printf,
		})
		if err != nil {
			log.Fatalf("pased: %v", err)
		}
		fc.Start()
		defer fc.Close()
		sv.fleet = fc
		log.Printf("pased: fleet member %s, peers %s", fc.Self(), *peers)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           sv.mux(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Warm restart: restore the previous run's result cache before the
	// listener starts (a restore takes under a millisecond). A stale or
	// corrupt snapshot is a logged warning and a cold start, never a crash —
	// robustness state must not take the daemon down.
	stopCheckpoints, checkpointsDone := make(chan struct{}), make(chan struct{})
	if *snapPath != "" {
		if nres, err := pl.LoadSnapshot(*snapPath); err != nil {
			log.Printf("pased: WARNING: discarding snapshot %s: %v (starting cold)", *snapPath, err)
		} else if nres > 0 {
			log.Printf("pased: restored snapshot %s (%d results)", *snapPath, nres)
		}
		go checkpoint(pl, *snapPath, *snapEvery, stopCheckpoints, checkpointsDone)
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("pased: serving on %s (solve timeout %s)", *addr, *solveTimeout)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("pased: %v", err)
	case sig := <-sigc:
		// Graceful drain: flip readiness (load balancers stop routing here),
		// stop accepting, let in-flight solves finish up to the drain budget,
		// then force-close what remains — closing a connection cancels its
		// request context, which aborts its solve.
		sv.draining.Store(true)
		log.Printf("pased: %v, draining in-flight requests (up to %s)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("pased: drain expired (%v); force-closing connections", err)
			if err := srv.Close(); err != nil {
				log.Fatalf("pased: close: %v", err)
			}
		}
		if *snapPath != "" {
			// Final checkpoint after the drain: everything solved during the
			// drain window makes it into the warm-restart state.
			close(stopCheckpoints)
			<-checkpointsDone
		}
		log.Printf("pased: drained, exiting")
	}
}

// checkpoint runs every snapshot save of the daemon on one goroutine: one
// per tick (no ticks when every is 0) and a final one when stop closes, then
// closes done. Saves never overlap, and the final one is the last, so no
// older capture can be renamed over it.
func checkpoint(pl *pase.Planner, path string, every time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	var tick <-chan time.Time
	if every > 0 {
		t := time.NewTicker(every)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
			if err := pl.SaveSnapshot(path); err != nil {
				log.Printf("pased: WARNING: checkpoint %s: %v", path, err)
			}
		case <-stop:
			if err := pl.SaveSnapshot(path); err != nil {
				log.Printf("pased: WARNING: final checkpoint %s: %v", path, err)
			} else {
				log.Printf("pased: snapshot saved to %s", path)
			}
			return
		}
	}
}
