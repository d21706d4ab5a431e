package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Every index runs exactly once, on a worker below the worker count, and no
// two calls in flight at once share a worker id (callers index per-worker
// scratch by it) — for loops shorter than, equal to and far longer than the
// worker count, on a long-lived pool and one-shot alike.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		loops := map[string]func(int, func(w, i int)){
			"pool":    p.For,
			"oneshot": func(n int, f func(w, i int)) { For(n, workers, f) },
		}
		for name, loop := range loops {
			for _, n := range []int{0, 1, workers - 1, workers, 5000} {
				t.Run(fmt.Sprintf("%s/workers=%d/n=%d", name, workers, n), func(t *testing.T) {
					runs := make([]atomic.Int32, n)
					busy := make([]atomic.Bool, workers)
					var badWorker, shared atomic.Int32
					loop(n, func(w, i int) {
						if w < 0 || w >= workers {
							badWorker.Add(1)
							return
						}
						if busy[w].Swap(true) {
							shared.Add(1)
						}
						if i%64 == 0 {
							runtime.Gosched() // let the other workers claim meanwhile
						}
						runs[i].Add(1)
						busy[w].Store(false)
					})
					if badWorker.Load() != 0 || shared.Load() != 0 {
						t.Fatalf("%d calls on a worker id out of range, %d on a busy worker", badWorker.Load(), shared.Load())
					}
					for i := range runs {
						if r := runs[i].Load(); r != 1 {
							t.Fatalf("index %d ran %d times", i, r)
						}
					}
				})
			}
		}
		p.Close()
	}
}

// A loop returns only after every call has returned, and neither a pool nor
// a one-shot loop leaves a goroutine behind.
func TestForLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var running atomic.Int32
	f := func(_, i int) {
		running.Add(1)
		time.Sleep(time.Duration(i%3) * time.Millisecond)
		running.Add(-1)
	}
	p := NewPool(4)
	for range 3 {
		p.For(40, f)
		if r := running.Load(); r != 0 {
			t.Fatalf("Pool.For returned with %d calls running", r)
		}
	}
	p.Close()
	For(40, 4, f)
	if r := running.Load(); r != 0 {
		t.Fatalf("For returned with %d calls running", r)
	}
	// A helper that has signalled completion may still be unwinding.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > baseline %d after the loops returned", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
