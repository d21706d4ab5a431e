package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"pase"
	"pase/internal/fleet"
	"pase/internal/par"
)

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
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) { s.serveSolve(w, r, false) })
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/compare", s.handleCompare)
	// The internal route is how forwarded solves arrive from peers; its
	// handler never re-forwards, whatever the local ring says, which keeps
	// forwarding loop-free under inconsistent member views.
	mux.HandleFunc("POST "+fleet.InternalSolvePath, func(w http.ResponseWriter, r *http.Request) { s.serveSolve(w, r, true) })
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
		Timings:          res.Timings,
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

// readBody is the prologue of every route that solves: it counts the request
// and reads its body whole, up to maxBodyBytes, then decodes it into v unless
// v is nil. A longer body is 413 too_large — the bound is what caps the
// hashing, decoding and forwarding a single request can ask for. A body that
// declares its length within the bound is read into one buffer of exactly
// that length, and is 400 if it ends short of it; a chunked or over-long one
// is read through the bound.
func (s *server) readBody(w http.ResponseWriter, r *http.Request, v any) ([]byte, *apiError) {
	s.served.Add(1)
	var body []byte
	var err error
	if n := r.ContentLength; n >= 0 && n <= maxBodyBytes {
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
	} else {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, &apiError{status: http.StatusRequestEntityTooLarge, Code: "too_large",
				Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return nil, badRequest(fmt.Errorf("read request: %w", err))
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return nil, badRequest(fmt.Errorf("decode request: %w", err))
		}
	}
	return body, nil
}

func (s *server) serveSolve(w http.ResponseWriter, r *http.Request, internal bool) {
	body, apiErr := s.readBody(w, r, nil)
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
	buf := hitBufs.Get().(*[]byte)
	defer hitBufs.Put(buf)
	out, apiErr := s.serveOne(ctx, body, internal, buf)
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
// internal marks the peer-to-peer route, which never re-forwards. A hit
// served from stored bytes is assembled in *buf, grown as needed, so the
// returned body may alias it until *buf is reused.
func (s *server) serveOne(ctx context.Context, body []byte, internal bool, buf *[]byte) ([]byte, *apiError) {
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
		*buf = ent.appendHit((*buf)[:0], start)
		return served(*buf)
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
		resp.Cached, resp.Timings = true, pase.Timings{}
	}
	resp.Timings.Total = time.Since(start)
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

// bodyStart and bodyEnd are how the wire's encoder opens and closes a solve
// response: its strategy document is the first field.
const bodyStart, bodyEnd = "{\n  \"strategy\": {", "\n}\n"

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
// place — the fleet client reads it with room to spare for them. The body is
// not decoded: it must be valid JSON, opened with a strategy document and
// closed the way the wire's encoder does both, and it stays the bytes it is.
// The internal route sets neither mark, and both sort after every field it
// does set, so they go at the end.
func markForwarded(body []byte, owner string) ([]byte, error) {
	if !json.Valid(body) {
		return nil, errors.New("not valid JSON")
	}
	if !bytes.HasPrefix(body, []byte(bodyStart)) || !bytes.HasSuffix(body, []byte(bodyEnd)) {
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
	var br batchRequest
	if _, apiErr := s.readBody(w, r, &br); apiErr != nil {
		apiErr.write(w)
		return
	}
	if len(br.Requests) == 0 {
		badRequest(errors.New("batch has no requests")).write(w)
		return
	}
	ctx, cancel := s.solveCtx(r.Context())
	defer cancel()
	// GOMAXPROCS workers claim the items, not a goroutine per item: a 1 MiB
	// body holds tens of thousands of items, and each may become a solve or
	// an outbound peer call. Answers keep request order.
	entries := make([]json.RawMessage, len(br.Requests))
	par.For(len(entries), runtime.GOMAXPROCS(0), func(i int) {
		out, apiErr := s.serveOne(ctx, br.Requests[i], false, new([]byte))
		if apiErr != nil {
			// A string and diagnostics always marshal.
			out, _ = json.Marshal(batchError{Error: apiErr.Error, Details: apiErr.Details})
		}
		entries[i] = out
	})
	writeJSON(w, http.StatusOK, batchResponse{Results: entries})
}

func (s *server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var cr compareRequest
	if _, apiErr := s.readBody(w, r, &cr); apiErr != nil {
		apiErr.write(w)
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
			we.SearchMs = float64(e.Result.Timings.Total.Nanoseconds()) / 1e6
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
