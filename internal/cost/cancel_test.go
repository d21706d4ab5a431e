package cost

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pase/internal/machine"
	"pase/internal/models"
)

// cancelAtDone is a context that cancels itself the n-th time Done is asked
// for. NewModelWith asks once per parallel phase — the vertex classes, the
// TX sides, then the quotients — so n = 1 cancels the build before its first
// task and n = 2 after the vertex classes.
type cancelAtDone struct {
	context.Context
	cancel context.CancelFunc
	n      int32
	calls  atomic.Int32
}

func (c *cancelAtDone) Done() <-chan struct{} {
	if c.calls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Done()
}

// A build cancelled mid-way returns an error wrapping context.Canceled, runs
// no class build of a phase that starts after the cancel (every task polls
// first; a store counts the builds that ran) and leaves no goroutine behind.
//
// Kept by hand: no mutant reaches cancellation polling.
func TestNewModelWithCancelledMidBuild(t *testing.T) {
	bms := models.Benchmarks()
	bm := bms[slices.IndexFunc(bms, func(b models.Benchmark) bool { return b.Name == "InceptionV3" })] // many classes per phase
	g, spec, pol := bm.Build(bm.Batch), machine.GTX1080Ti(8), bm.Policy(8)
	full, err := NewModelWith(context.Background(), g, spec, pol, BuildOptions{Store: NewClassStore(0)})
	if err != nil {
		t.Fatal(err)
	}
	vertexClasses := int64(full.Info().VertexClasses)
	for n, wantBuilds := range map[int32]int64{1: 0, 2: vertexClasses} {
		t.Run(fmt.Sprintf("done=%d", n), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			store := NewClassStore(0)
			m, err := NewModelWith(&cancelAtDone{Context: ctx, cancel: cancel, n: n}, g, spec, pol, BuildOptions{Store: store})
			if m != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("model %v, error %v; want nil and context.Canceled", m != nil, err)
			}
			if got := store.Stats().Misses; got != wantBuilds {
				t.Fatalf("%d class builds ran, want %d", got, wantBuilds)
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines %d > baseline %d after the cancelled build", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// Inside a phase, a task claimed after the cancel is skipped: the cancelling
// task runs, and after cancel() has returned at most one task per other
// worker, already past its poll, still starts.
//
// Kept by hand: no mutant reaches cancellation polling.
func TestParallelForStopsAtCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n, at = 10_000, 100
	var cancelled, ranAt atomic.Bool
	var late atomic.Int32
	parallelFor(ctx, n, func(i int) {
		if cancelled.Load() {
			late.Add(1)
		}
		if i == at {
			cancel()
			ranAt.Store(true)
			cancelled.Store(true)
		}
	})
	if !ranAt.Load() {
		t.Fatalf("the cancelling task %d never ran", at)
	}
	if l, limit := int(late.Load()), runtime.GOMAXPROCS(0)-1; l > limit {
		t.Fatalf("%d tasks started after the cancel, want at most %d", l, limit)
	}
}
