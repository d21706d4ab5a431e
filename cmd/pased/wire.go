package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"strconv"

	"pase"
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
	// table). Omitted or 0 means 32 (planner.DefaultBeamWidth).
	BeamWidth int `json:"beam_width,omitempty"`
	// GapTarget steers beam refinement: omitted, 0 or negative runs a single
	// pass at BeamWidth; > 0 doubles the width until the optimality gap
	// reaches the target.
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
	// Timings' total_ns counts from the daemon's receipt of the body.
	Timings     pase.Timings `json:"timings"`
	Cached      bool         `json:"cached"`
	Fingerprint string       `json:"fingerprint"`
	// States is the work the search did: (φ, C) candidates the exact DP's
	// scan evaluated, beam states explored, or MCMC proposals.
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
	// retained DP snapshot (only the tables whose content keys changed
	// filled).
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

// internalError is a plain 500: a failure that is the daemon's own.
func internalError(err error) *apiError {
	return &apiError{status: http.StatusInternalServerError, Code: "internal", Error: err.Error()}
}

// solveError maps a planner error onto an HTTP status and a stable error
// code: a shed request is 429 (retry later, or elsewhere), OOM is 503 (this
// daemon cannot serve the exact solve — with degradation enabled most OOMs
// never surface here), a graph too entangled for the beam is 422 (the
// request itself cannot be served), a solve-deadline expiry is a gateway
// timeout, a client-cancelled solve is 499, and an isolated solver panic is
// a plain 500.
func solveError(err error) *apiError {
	e := internalError(err)
	switch {
	case errors.Is(err, pase.ErrShed):
		e.status, e.Code = http.StatusTooManyRequests, "shed"
	case errors.Is(err, pase.ErrOOM):
		e.status, e.Code = http.StatusServiceUnavailable, "oom"
	case errors.Is(err, pase.ErrTooEntangled):
		e.status, e.Code = http.StatusUnprocessableEntity, "too_entangled"
	case errors.Is(err, context.DeadlineExceeded):
		e.status, e.Code = http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		e.status, e.Code = statusClientClosedRequest, "cancelled"
	case errors.Is(err, pase.ErrSolvePanic):
		e.Code = "panic"
	}
	return e
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
	// profile and the request should ask for method dp instead.
	maxBeamWidth = 1 << 16
	// maxGapTarget caps the wire-supplied beam gap target (zero and negatives
	// mean a single pass and pass through).
	maxGapTarget = 1e6
	// maxPriority bounds the wire-supplied admission priority in both
	// directions; the range is generous — priorities only order waiters.
	maxPriority = 100
)
