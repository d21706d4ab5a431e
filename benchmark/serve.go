package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pase/internal/canon"
	"pase/internal/export"
	"pase/internal/fleet"
	"pase/internal/graph"
	"pase/internal/machine"
	"pase/internal/planner"
	"pase/internal/pressure"
	"pase/internal/spec"
)

var serveHits = workload{
	name:      "serve_hits",
	why:       "two pased in a fleet, one keep-alive client, 20 hits per op: 14 registry hits the addressed daemon owns, 3 inline specs, 3 forwarded to the peer; JSON, canon, caches, export, spec, fleet; no core",
	opsPerSec: 29,
	start:     func(e env, _ int) (runner, error) { return newServeRunner(e) },
	trace:     serveTrace,
}

var (
	servePs    = []int{4, 8, 16, 32}
	serveSpecs = []string{"alexnet.json", "gptdeep3.json", "transformer.json"}
)

const (
	specDir = "examples/specs"
	// The pattern's registry slots by class; each spec document has one
	// slot more. Local registry hits hold 70% of the slots, so the median
	// request never sits on the boundary between two classes.
	slotsLocal, slotsForward = 14, 3
	bootDeadline             = 20 * time.Second
)

// serveKey is one distinct request of the workload.
type serveKey struct {
	key string
	// model and p name a registry request; isSpec marks an inline document.
	model  string
	p      int
	isSpec bool
	body   []byte
	// doc is the spec document (nil for a registry request).
	doc  []byte
	g    *graph.Graph
	spec machine.Spec
	// req is the same request in process, for the traced replay.
	req planner.Request
	// forwarded says the peer owns the request, so the addressed daemon
	// forwards it on every hit (non-owners never cache).
	forwarded bool
}

func (k serveKey) class() string {
	c := "reg"
	if k.isSpec {
		c = "spec"
	}
	if k.forwarded {
		return c + "-forward"
	}
	return c + "-local"
}

// wireOptions pins the daemon's solves to the serial fill.
var wireOptions = map[string]any{"workers": 1}

func serveKeys() ([]serveKey, error) {
	var keys []serveKey
	for _, m := range paperModels {
		for _, p := range servePs {
			req, err := registryRequest(m, p, planner.Options{})
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(map[string]any{"model": m, "gpus": p, "options": wireOptions})
			if err != nil {
				return nil, err
			}
			keys = append(keys, serveKey{key: registryKey(m, p), model: m, p: p, body: body, g: req.G, spec: req.Spec, req: req})
		}
	}
	for _, name := range serveSpecs {
		doc, err := os.ReadFile(filepath.Join(specDir, name))
		if err != nil {
			return nil, err
		}
		ir, err := spec.Load(doc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		body, err := json.Marshal(map[string]any{"spec": json.RawMessage(doc), "options": wireOptions})
		if err != nil {
			return nil, err
		}
		keys = append(keys, serveKey{
			key: "spec:" + name, isSpec: true, body: body, doc: doc,
			g: ir.G, spec: ir.Machine, req: ir.Request(planner.Options{Workers: 1}),
		})
	}
	return keys, nil
}

// servePattern lays out one op: indexes into keys, in the seed's order. Local
// and forwarded registry slots cycle through the registry keys each daemon
// owns; every spec document gets one slot.
func servePattern(seed int64, keys []serveKey) ([]int, error) {
	var local, remote, specs []int
	for i, k := range keys {
		switch {
		case k.isSpec:
			specs = append(specs, i)
		case k.forwarded:
			remote = append(remote, i)
		default:
			local = append(local, i)
		}
	}
	if len(local) == 0 || len(remote) == 0 || len(specs) == 0 {
		return nil, fmt.Errorf("cannot lay out the pattern: %d registry keys owned by the addressed daemon, %d by its peer, %d spec documents", len(local), len(remote), len(specs))
	}
	var slots []int
	for i := 0; i < slotsLocal; i++ {
		slots = append(slots, local[i%len(local)])
	}
	slots = append(slots, specs...)
	for i := 0; i < slotsForward; i++ {
		slots = append(slots, remote[i%len(remote)])
	}
	return shuffled(seed, slots), nil
}

// wireAnswer is the part of a /v1/solve response the benchmark reads. The
// strategy document is decoded only for a request's first answer.
type wireAnswer struct {
	CostSeconds    float64 `json:"cost_seconds"`
	Cached         bool    `json:"cached"`
	Fingerprint    string  `json:"fingerprint"`
	FleetForwarded bool    `json:"fleet_forwarded"`
	FleetFallback  bool    `json:"fleet_fallback"`
}

type wireStrategy struct {
	Strategy *export.Document `json:"strategy"`
}

// fleetProcs is the two-daemon fleet and the one client connection into it.
type fleetProcs struct {
	a, b   *daemon
	client *http.Client
}

func bootFleet() (*fleetProcs, error) {
	f := &fleetProcs{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 2 * time.Minute}}
	var err error
	if f.a, err = startDaemon("a", portA, debugPortA, portB); err != nil {
		return nil, err
	}
	if f.b, err = startDaemon("b", portB, debugPortB, portA); err != nil {
		f.stop()
		return nil, err
	}
	for _, d := range []*daemon{f.a, f.b} {
		if err := d.ready(bootDeadline); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleetProcs) stop() {
	f.client.CloseIdleConnections()
	for _, d := range []*daemon{f.a, f.b} {
		if d != nil {
			d.stop()
		}
	}
}

// cpu is the CPU time both daemons have used; a daemon that is gone counts
// as zero and is reported by alive.
func (f *fleetProcs) cpu() time.Duration {
	ca, _ := f.a.cpu()
	cb, _ := f.b.cpu()
	return ca + cb
}

func (f *fleetProcs) alive() error {
	for _, d := range []*daemon{f.a, f.b} {
		if !d.alive() {
			return fmt.Errorf("pased %s died; see %s", d.name, d.log.Name())
		}
	}
	return nil
}

// solve posts one request to daemon A and returns the raw 200 body.
func (f *fleetProcs) solve(body []byte) ([]byte, error) {
	resp, err := f.client.Post(f.a.base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %s: %.200s", resp.Status, data)
	}
	return data, nil
}

// warm solves every key once through daemon A, checks each first answer, and
// learns from the answer's fingerprint which daemon owns the key.
func (f *fleetProcs) warm(keys []serveKey, chk *checker) error {
	members := []string{f.a.base, f.b.base}
	for i := range keys {
		k := &keys[i]
		data, err := f.solve(k.body)
		if err != nil {
			return fmt.Errorf("%s: %w", k.key, err)
		}
		var ans wireAnswer
		var doc wireStrategy
		if err := errors.Join(json.Unmarshal(data, &ans), json.Unmarshal(data, &doc)); err != nil {
			return fmt.Errorf("%s: %w", k.key, err)
		}
		raw, err := hex.DecodeString(ans.Fingerprint)
		if err != nil || len(raw) != len(canon.Fingerprint{}) {
			return fmt.Errorf("%s: fingerprint %q", k.key, ans.Fingerprint)
		}
		k.forwarded = fleet.RendezvousOwner(members, canon.Fingerprint(raw)) == f.b.base
		if k.forwarded != ans.FleetForwarded {
			return fmt.Errorf("%s: rendezvous ownership says forwarded=%v, the daemon answered fleet_forwarded=%v", k.key, k.forwarded, ans.FleetForwarded)
		}
		if doc.Strategy == nil {
			return fmt.Errorf("%s: answer carries no strategy document", k.key)
		}
		strategy, err := doc.Strategy.ToStrategy(k.g)
		if err != nil {
			return fmt.Errorf("%s: %w", k.key, err)
		}
		// Check failures recur in the window, where they are counted.
		chk.check(k.key, solved{g: k.g, spec: k.spec, strategy: strategy, cost: ans.CostSeconds})
	}
	return nil
}

// hit sends one request of the pattern and checks it was a cache hit with
// the cost of the key's first answer.
func (f *fleetProcs) hit(k serveKey, chk *checker) error {
	data, err := f.solve(k.body)
	if err != nil {
		return fmt.Errorf("%s: %w", k.key, err)
	}
	var ans wireAnswer
	if err := json.Unmarshal(data, &ans); err != nil {
		return fmt.Errorf("%s: %w", k.key, err)
	}
	if !ans.Cached || ans.FleetFallback || ans.FleetForwarded != k.forwarded {
		return fmt.Errorf("%s: want a cache hit with forwarded=%v, got cached=%v forwarded=%v fallback=%v", k.key, k.forwarded, ans.Cached, ans.FleetForwarded, ans.FleetFallback)
	}
	if _, ok := chk.seen[k.key]; !ok {
		return fmt.Errorf("%s: its first answer failed the output checks", k.key)
	}
	return chk.check(k.key, solved{cost: ans.CostSeconds})
}

type serveRunner struct {
	seed     int64
	chk      *checker
	keys     []serveKey
	pattern  []int
	fleet    *fleetProcs
	before   daemonStats
	patterns int64
}

func newServeRunner(e env) (*serveRunner, error) {
	chk, err := newChecker()
	if err != nil {
		return nil, err
	}
	keys, err := serveKeys()
	if err != nil {
		return nil, err
	}
	return &serveRunner{seed: e.seed, chk: chk, keys: keys}, nil
}

func (r *serveRunner) setup() error {
	r.close()
	var err error
	if r.fleet, err = bootFleet(); err != nil {
		return err
	}
	if err := r.fleet.warm(r.keys, r.chk); err != nil {
		return err
	}
	if r.pattern, err = servePattern(r.seed, r.keys); err != nil {
		return err
	}
	for i := 0; i < warmupOps; i++ {
		r.op(-1)
	}
	r.patterns = 0
	r.before, err = r.fleet.a.stats()
	return err
}

func (r *serveRunner) op(int) (opSample, error) {
	var errs []error
	s := timed(r.fleet.cpu, func() {
		for _, ki := range r.pattern {
			errs = append(errs, r.fleet.hit(r.keys[ki], r.chk))
		}
	})
	r.patterns++
	return s, errors.Join(append(errs, r.fleet.alive())...)
}

// forwardedPerPattern is how many of the pattern's slots the peer owns.
func (r *serveRunner) forwardedPerPattern() int64 {
	n := int64(0)
	for _, ki := range r.pattern {
		if r.keys[ki].forwarded {
			n++
		}
	}
	return n
}

func (r *serveRunner) finish() (endState, error) {
	var end endState
	var errs []error
	for _, d := range []*daemon{r.fleet.a, r.fleet.b} {
		rss, err := peakRSSMB(d.cmd.Process.Pid)
		heap, err2 := d.heapRetainedMB()
		errs = append(errs, err, err2)
		end.peakRSSMB += rss
		end.heapRetainedMB += heap
	}
	end.costRatios, end.gapRatios = r.chk.ratios()
	after, err := r.fleet.a.stats()
	errs = append(errs, err, r.fleet.alive())
	if got, want := after.Fleet.Forwards-r.before.Fleet.Forwards, r.patterns*r.forwardedPerPattern(); got != want {
		errs = append(errs, fmt.Errorf("daemon a forwarded %d requests in the window, the pattern predicts %d", got, want))
	}
	if after.Fleet.Retries != 0 || after.Fleet.Fallbacks != 0 {
		errs = append(errs, fmt.Errorf("fleet counted %d retries and %d fall-backs, want none", after.Fleet.Retries, after.Fleet.Fallbacks))
	}
	return end, errors.Join(errs...)
}

func (r *serveRunner) close() {
	if r.fleet != nil {
		r.fleet.stop()
		r.fleet = nil
	}
}

// serveTraceOps is how many patterns each pass of the slice sends.
const serveTraceOps = 25

// serveTrace times the pattern's requests from the client, one span each,
// then replays in process the layer calls the daemon makes for a hit. The
// daemon itself carries no spans yet, so what it adds on top of those calls
// (HTTP, JSON, routing) shows as pased.handler_overhead_us.
func serveTrace(e env) (*traceResult, error) {
	r, err := newServeRunner(e)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.setup(); err != nil {
		return nil, err
	}
	t := newTraceResult()
	t.slice(serveTraceOps, func(tr *tracer, _ int) {
		tr.op(func() {
			for _, ki := range r.pattern {
				k := r.keys[ki]
				tr.do("pased.request", k.class(), func() {
					if err := r.fleet.hit(k, r.chk); err != nil {
						t.fail(err)
					}
				})
			}
		})
		r.patterns++
	})
	after, err := r.fleet.a.stats()
	if err != nil {
		return nil, err
	}
	if err := r.fleet.alive(); err != nil {
		return nil, err
	}
	requests := float64(r.patterns * int64(len(r.pattern)))
	local := median(durations(t.spans, "pased.request", "reg-local"))
	t.set("pased.hit_ms", ms(local))
	t.set("pased.spec_hit_ms", ms(median(durations(t.spans, "pased.request", "spec-local"))))
	t.set("fleet.forward_ms", ms(median(durations(t.spans, "pased.request", "reg-forward"))-local))
	t.set("fleet.forwarded_share", float64(after.Fleet.Forwards-r.before.Fleet.Forwards)/requests)
	t.set("fleet.retries", float64(after.Fleet.Retries))
	t.set("fleet.fallbacks", float64(after.Fleet.Fallbacks))
	hits := float64(after.Planner.ResultHits - r.before.Planner.ResultHits)
	t.set("planner.result_hit_ratio", hits/(hits+float64(after.Planner.ResultMisses-r.before.Planner.ResultMisses)))
	if want := float64(r.forwardedPerPattern()) / float64(len(r.pattern)); t.metrics["fleet.forwarded_share"] != want {
		t.fail(fmt.Errorf("fleet.forwarded_share is %v, the pattern predicts %v", t.metrics["fleet.forwarded_share"], want))
	}
	r.close()

	replay, err := serveReplay(r.keys, r.pattern)
	if err != nil {
		return nil, err
	}
	var in, out float64
	for _, k := range r.keys {
		if k.isSpec {
			in += float64(len(k.doc)) / float64(len(serveSpecs))
		}
	}
	for _, s := range replay.bytesOut {
		out += float64(s) / float64(len(replay.bytesOut))
	}
	calls := 0.0
	for _, name := range []string{"models.build_graph", "canon.fingerprint", "planner.hit", "export.encode"} {
		calls += median(durations(replay.spans, name, "reg"))
	}
	t.set("models.build_graph_us", us(median(durations(replay.spans, "models.build_graph", "reg"))))
	t.set("canon.fingerprint_us", us(typical(replay.spans, "canon.fingerprint")))
	t.set("planner.hit_us", us(typical(replay.spans, "planner.hit")))
	t.set("export.encode_us", us(typical(replay.spans, "export.encode")))
	t.set("export.bytes_out", out)
	t.set("spec.load_ms", ms(typical(replay.spans, "spec.load")))
	t.set("spec.bytes_in", in)
	t.set("pased.handler_overhead_us", us(local-calls))
	t.set("pressure.acquire_us", us(gateRoundTrip()))
	t.spans = appendSpans(t.spans, replay.spans)
	return t, nil
}

type replayResult struct {
	spans    []span
	bytesOut []int
}

// serveReplay answers the pattern from a planner in this process, calling
// the layers in the daemon's order: build or load the graph, fingerprint,
// result-cache hit, encode.
func serveReplay(keys []serveKey, pattern []int) (*replayResult, error) {
	ctx := context.Background()
	pl := planner.New(planner.Config{})
	for _, k := range keys {
		if _, err := pl.Solve(ctx, k.req); err != nil {
			return nil, fmt.Errorf("%s: %w", k.key, err)
		}
	}
	tr := newTracer()
	out := &replayResult{}
	var failure error
	for i := 0; i < serveTraceOps; i++ {
		tr.op(func() {
			for _, ki := range pattern {
				k := keys[ki]
				var req planner.Request
				var err error
				if k.isSpec {
					tr.do("spec.load", k.key, func() {
						var ir *spec.IR
						if ir, err = spec.Load(k.doc); err == nil {
							req = ir.Request(planner.Options{Workers: 1})
						}
					})
				} else {
					tr.do("models.build_graph", "reg", func() {
						req, err = registryRequest(k.model, k.p, planner.Options{})
					})
				}
				if err != nil {
					failure = err
					return
				}
				class := "reg"
				if k.isSpec {
					class = "spec"
				}
				tr.do("canon.fingerprint", class, func() { planner.Fingerprints(req) })
				var res *planner.Result
				tr.do("planner.hit", class, func() { res, err = pl.Solve(ctx, req) })
				if err != nil || !res.Cached {
					failure = fmt.Errorf("%s: in-process replay was not a cache hit (err %v)", k.key, err)
					return
				}
				tr.do("export.encode", class, func() {
					var doc *export.Document
					var buf bytes.Buffer
					if doc, err = export.FromStrategy(k.key, req.G, res.Strategy, req.Spec.Devices, res.Cost); err == nil {
						err = doc.Write(&buf)
					}
					out.bytesOut = append(out.bytesOut, buf.Len())
				})
				if err != nil {
					failure = err
					return
				}
			}
		})
	}
	out.spans = tr.spans
	return out, failure
}

// gateRoundTrip is the mean time (ns) of an uncontended admission-gate
// Acquire and Release.
func gateRoundTrip() float64 {
	const n = 100000
	g := pressure.NewGate(pressure.GateConfig{MaxInFlight: 1})
	ctx := context.Background()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := g.Acquire(ctx, 0); err == nil {
			g.Release()
		}
	}
	return float64(time.Since(t0)) / n
}
