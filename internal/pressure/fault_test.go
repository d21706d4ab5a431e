package pressure

import (
	"context"
	"errors"
	"testing"
	"time"

	"pase/internal/core"
)

func TestFaultPlanParseErrors(t *testing.T) {
	for _, spec := range []string{
		"dp",                 // no kind
		"nowhere:oom",        // unknown site
		"dp:explode",         // unknown kind
		"dp:oom:0",           // count must be >= 1
		"dp:oom:-1",          // count must be >= 1
		"dp:latency",         // latency needs a duration
		"dp:latency:fast",    // bad duration
		"dp:latency:-1s",     // non-positive duration
		"dp:oom:1:2",         // too many args
		"solve:panic:1:2",    // too many args
		"solve:latency:1s:0", // bad count
		"dp:latency:1s:2:3",  // too many args
		"peer:error:0",       // count must be >= 1
		"peer:error:1:2",     // too many args
		"peer:drop:oops",     // bad count
		"peer:drop:1:2",      // too many args
	} {
		if _, err := ParseFaultPlan(spec); err == nil {
			t.Errorf("ParseFaultPlan(%q): want error", spec)
		}
	}
	if p, err := ParseFaultPlan("  "); p != nil || err != nil {
		t.Fatalf("empty spec: %v %v", p, err)
	}
}

func TestFaultPlanOOMCount(t *testing.T) {
	p, err := ParseFaultPlan("dp:oom:2")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := p.Fire(ctx, SiteDP); !errors.Is(err, core.ErrOOM) {
			t.Fatalf("fire %d: want ErrOOM, got %v", i, err)
		}
	}
	if err := p.Fire(ctx, SiteDP); err != nil {
		t.Fatalf("exhausted fault still fires: %v", err)
	}
	// Other sites are untouched.
	if err := p.Fire(ctx, SiteSolve); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
	// A nil plan is inert.
	var nilPlan *FaultPlan
	if err := nilPlan.Fire(ctx, SiteDP); err != nil {
		t.Fatalf("nil plan fired: %v", err)
	}
}

func TestFaultPlanPanic(t *testing.T) {
	p, err := ParseFaultPlan("solve:panic:1")
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("armed panic fault did not panic")
			}
		}()
		p.Fire(context.Background(), SiteSolve)
	}()
	if err := p.Fire(context.Background(), SiteSolve); err != nil {
		t.Fatalf("exhausted panic fault: %v", err)
	}
}

// TestFaultPlanPeerErrorAndDrop: the peer-site kinds wrap ErrInjected so the
// fleet client's tests can tell injected failures from real ones, and their
// counts disarm like every other kind's.
func TestFaultPlanPeerErrorAndDrop(t *testing.T) {
	ctx := context.Background()
	p, err := ParseFaultPlan("peer:error:1")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Fire(ctx, SitePeer); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed error fault: want ErrInjected, got %v", err)
	}
	if err := p.Fire(ctx, SitePeer); err != nil {
		t.Fatalf("exhausted error fault still fires: %v", err)
	}

	p, err = ParseFaultPlan("peer:drop")
	if err != nil {
		t.Fatal(err)
	}
	// No count: fires every time.
	for i := 0; i < 3; i++ {
		if err := p.Fire(ctx, SitePeer); !errors.Is(err, ErrInjected) {
			t.Fatalf("fire %d: want ErrInjected, got %v", i, err)
		}
	}
	// The peer site does not leak into the solve pipeline's sites.
	if err := p.Fire(ctx, SiteSolve); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
}

func TestFaultPlanLatencyRespectsContext(t *testing.T) {
	p, err := ParseFaultPlan("model:latency:10s")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := p.Fire(ctx, SiteModel); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("latency fault ignored ctx: slept %v", d)
	}
}

func TestFaultPlanLatencyThenProceed(t *testing.T) {
	p, err := ParseFaultPlan("dp:latency:30ms:1,dp:oom:1")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// First fire: sleeps, then the armed oom fault fires.
	if err := p.Fire(context.Background(), SiteDP); !errors.Is(err, core.ErrOOM) {
		t.Fatalf("want ErrOOM after latency, got %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("latency fault did not sleep (%v)", d)
	}
	// Both exhausted: clean pass-through.
	if err := p.Fire(context.Background(), SiteDP); err != nil {
		t.Fatalf("exhausted plan: %v", err)
	}
}
