package pressure

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzParseFaultPlan: no spec makes the parser panic, an accepted plan's
// String is the trimmed spec, and that string parses again to the same
// per-site fault lists.
func FuzzParseFaultPlan(f *testing.F) {
	for _, spec := range []string{
		"", "  ", "dp:oom:1", "solve:latency:30s", "solve:panic:1",
		"peer:error", "peer:drop:2", "dp:latency:800ms:3",
		" dp:oom:1 , model:panic ,solve:latency:1h", "dp:oom:0",
		"dp:latency", "nowhere:oom", "dp:oom:1:2", "dp:oom,",
	} {
		f.Add(spec)
	}
	type armed struct {
		kind      FaultKind
		delay     time.Duration
		remaining int64
	}
	lists := func(p *FaultPlan) map[string][]armed {
		if p == nil {
			return nil
		}
		out := map[string][]armed{}
		for site, fs := range p.sites {
			for _, fa := range fs {
				out[site] = append(out[site], armed{fa.kind, fa.delay, fa.remaining.Load()})
			}
		}
		return out
	}

	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaultPlan(spec)
		if err != nil {
			return
		}
		if got, want := p.String(), strings.TrimSpace(spec); got != want {
			t.Fatalf("String() = %q, want the trimmed spec %q", got, want)
		}
		again, err := ParseFaultPlan(p.String())
		if err != nil {
			t.Fatalf("String() %q of an accepted plan does not re-parse: %v", p.String(), err)
		}
		if !reflect.DeepEqual(lists(p), lists(again)) {
			t.Fatalf("re-parse of %q changed the faults: %v, want %v", p.String(), lists(again), lists(p))
		}
	})
}
