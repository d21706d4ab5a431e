// Command pased is the PaSE strategy-serving daemon: an HTTP JSON front end
// over the planner, so a cluster scheduler or training framework can request
// parallelization strategies on demand. Identical requests are served from
// the planner's result cache, concurrent identical requests share one solve,
// a miss builds its cost model cold (no tables outlive a request), and every
// request — /v1/solve, a fleet-forwarded /v1/internal/solve, or an item of
// a /v1/batch, whose items GOMAXPROCS workers claim one at a time (par.For)
// and answer in request order — takes the same route (serveOne). A repeat
// body is answered from the request memo without reaching spec.Load or the
// model registry, so a change to lowering shows on a body's first request
// only; /v1/stats memo_hits / memo_misses say which kind a request was.
//
// Every solve is tied to its request's context: a disconnected client or the
// -solve-timeout deadline aborts the model build, DP or beam mid-flight within
// milliseconds — unless another identical request is still waiting on the
// same singleflighted solve, in which case it finishes for them. A beam
// answer depends on the request alone (one pass, or doubling widths until a
// positive gap_target is met), so it is cached like any other; a gap_target
// the search cannot meet before the deadline is a 504. SIGTERM
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
// served by the bounded-width beam instead — a valid strategy marked
// "degraded": true with a sound optimality gap. Solver panics are isolated
// per request. Errors are structured: {"error": ..., "code": ...} with
// stable codes (shed → 429, oom → 503, too_entangled → 422, timeout → 504,
// cancelled → 499, a body beyond 1 MiB → 413 too_large).
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
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pase"
	"pase/internal/fleet"
)

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
	if !net.ParseIP(host).IsLoopback() { // a nil IP is not loopback
		return fmt.Errorf("%q is not a loopback address; the pprof listener serves heap and goroutine dumps and must stay on localhost", addr)
	}
	return nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8555", "listen address")
		resultCache  = flag.Int("result-cache", 256, "solved-result LRU capacity")
		maxGPUs      = flag.Int("max-gpus", 128, "largest accepted device count (cost-model tables grow with p; raise deliberately)")
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
