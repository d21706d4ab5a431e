package pressure

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pase/internal/core"
)

// Fault-injection sites: the named points in the serving pipeline where a
// FaultPlan can fire. Each site is checked by the planner at most once per
// underlying operation, so a plan's counts map 1:1 onto requests.
const (
	// SiteSolve fires at the start of every underlying solve, regardless of
	// method — the site for panic-isolation and generic latency tests.
	SiteSolve = "solve"
	// SiteDP fires at the start of the exact "dp" solve path only — the site
	// for exercising the ErrOOM → degraded-beam ladder.
	SiteDP = "dp"
	// SiteModel fires at the start of every cost-model build.
	SiteModel = "model"
	// SitePeer fires before every fleet peer call attempt — the site for
	// exercising slow, erroring, and dead peers deterministically.
	SitePeer = "peer"
)

var faultSites = []string{SiteDP, SiteModel, SitePeer, SiteSolve}

// ErrInjected marks an error manufactured by a FaultPlan (the "error" and
// "drop" kinds) rather than observed from a real dependency, so tests can
// assert the failure path they exercised was the injected one.
var ErrInjected = errors.New("pressure: injected failure")

// FaultKind is what an injected fault does when it fires.
type FaultKind int

const (
	// FaultOOM returns an error wrapping core.ErrOOM, exactly as a DP table
	// budget overrun would.
	FaultOOM FaultKind = iota
	// FaultPanic panics on the firing goroutine, exercising the planner's
	// panic isolation.
	FaultPanic
	// FaultLatency sleeps for the configured delay (respecting the request
	// context), then lets the operation proceed.
	FaultLatency
	// FaultError returns an error wrapping ErrInjected, as a peer answering
	// 5xx would surface to the fleet client.
	FaultError
	// FaultDrop returns an error wrapping ErrInjected shaped like a refused
	// connection — the immediate failure a SIGKILLed peer produces.
	FaultDrop
)

func (k FaultKind) String() string {
	switch k {
	case FaultOOM:
		return "oom"
	case FaultPanic:
		return "panic"
	case FaultLatency:
		return "latency"
	case FaultError:
		return "error"
	case FaultDrop:
		return "drop"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// fault is one armed injection: remaining counts down to disarm when the
// fault was given a count (-1 means fire every time).
type fault struct {
	kind      FaultKind
	delay     time.Duration
	remaining atomic.Int64
}

// armed consumes one firing; false when the fault's count is exhausted.
func (f *fault) armed() bool {
	for {
		r := f.remaining.Load()
		if r < 0 {
			return true
		}
		if r == 0 {
			return false
		}
		if f.remaining.CompareAndSwap(r, r-1) {
			return true
		}
	}
}

// FaultPlan injects failures at named pipeline sites so overload behavior is
// testable deterministically. It is test- and debug-only: construct one from
// ParseFaultPlan (the pased -fault-plan flag) and hand it to the planner's
// Config; a nil plan injects nothing. Safe for concurrent use.
type FaultPlan struct {
	sites map[string][]*fault
	spec  string
}

// ParseFaultPlan parses a comma-separated fault spec. Each entry is
//
//	site:kind[:arg]
//
// with site one of "solve", "dp", "model", "peer"; kind one of "oom",
// "panic", "error", "drop" (optional arg: how many times to fire, default
// every time), or "latency" (required arg: a sleep duration such as 500ms,
// optionally followed by :count). Examples:
//
//	dp:oom:1                — the first exact-DP solve hits ErrOOM
//	solve:panic:2           — the first two solves panic
//	dp:latency:800ms        — every exact-DP solve takes an extra 800ms
//	dp:latency:800ms:3      — ... the first three only
//	peer:error:1            — the first peer call attempt fails (as a 5xx would)
//	peer:drop               — every peer call attempt fails like a dead peer
//
// An empty spec returns (nil, nil).
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &FaultPlan{sites: map[string][]*fault{}, spec: spec}
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("pressure: fault %q: want site:kind[:arg]", entry)
		}
		site := parts[0]
		if !contains(faultSites, site) {
			return nil, fmt.Errorf("pressure: fault %q: unknown site %q (want one of %v)", entry, site, faultSites)
		}
		f := &fault{}
		f.remaining.Store(-1)
		countArg := ""
		kind, countOnly := countOnlyKinds[parts[1]]
		switch {
		case countOnly:
			f.kind = kind
			if len(parts) > 3 {
				return nil, fmt.Errorf("pressure: fault %q: want site:%s[:count]", entry, parts[1])
			}
			if len(parts) == 3 {
				countArg = parts[2]
			}
		case parts[1] == "latency":
			f.kind = FaultLatency
			if len(parts) < 3 || len(parts) > 4 {
				return nil, fmt.Errorf("pressure: fault %q: want site:latency:duration[:count]", entry)
			}
			d, err := time.ParseDuration(parts[2])
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("pressure: fault %q: bad latency %q", entry, parts[2])
			}
			f.delay = d
			if len(parts) == 4 {
				countArg = parts[3]
			}
		default:
			return nil, fmt.Errorf("pressure: fault %q: unknown kind %q (want oom, panic, latency, error, or drop)", entry, parts[1])
		}
		if countArg != "" {
			n, err := strconv.Atoi(countArg)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("pressure: fault %q: bad count %q", entry, countArg)
			}
			f.remaining.Store(int64(n))
		}
		p.sites[site] = append(p.sites[site], f)
	}
	return p, nil
}

// countOnlyKinds are the kinds whose one optional argument is a count.
var countOnlyKinds = map[string]FaultKind{"oom": FaultOOM, "panic": FaultPanic, "error": FaultError, "drop": FaultDrop}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// String returns the spec the plan was parsed from.
func (p *FaultPlan) String() string {
	if p == nil {
		return ""
	}
	return p.spec
}

// Fire triggers the plan's faults armed at site, in spec order: latency
// faults sleep (aborting early on ctx) and fall through; an oom fault
// returns an error wrapping core.ErrOOM; error and drop faults return an
// error wrapping ErrInjected; a panic fault panics. A nil plan, an unknown
// site, and exhausted counts all return nil.
func (p *FaultPlan) Fire(ctx context.Context, site string) error {
	if p == nil {
		return nil
	}
	for _, f := range p.sites[site] {
		if !f.armed() {
			continue
		}
		switch f.kind {
		case FaultLatency:
			t := time.NewTimer(f.delay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return context.Cause(ctx)
			}
		case FaultOOM:
			return fmt.Errorf("pressure: injected fault at site %q: %w", site, core.ErrOOM)
		case FaultError:
			return fmt.Errorf("pressure: fault at site %q: peer answered with a server error: %w", site, ErrInjected)
		case FaultDrop:
			return fmt.Errorf("pressure: fault at site %q: connection refused: %w", site, ErrInjected)
		case FaultPanic:
			panic(fmt.Sprintf("pressure: injected panic at site %q", site))
		}
	}
	return nil
}
