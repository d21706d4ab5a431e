package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Every index runs exactly once, for loops shorter than, equal to and far
// longer than the worker count, and with no worker beside the caller. The
// loops are one-shot: their goroutines start and end with the loop.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		for _, n := range []int{0, 1, workers - 1, workers, 5000} {
			if n < 0 {
				continue
			}
			t.Run(fmt.Sprintf("oneshot/workers=%d/n=%d", workers, n), func(t *testing.T) {
				runs := make([]atomic.Int32, n)
				For(n, workers, func(i int) {
					if i%64 == 0 {
						runtime.Gosched() // let the other workers claim meanwhile
					}
					runs[i].Add(1)
				})
				for i := range runs {
					if r := runs[i].Load(); r != 1 {
						t.Fatalf("index %d ran %d times", i, r)
					}
				}
			})
		}
	}
}

// A loop returns only after every call has returned, and leaves no goroutine
// behind.
func TestForLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var running atomic.Int32
	For(40, 4, func(i int) {
		running.Add(1)
		time.Sleep(time.Duration(i%3) * time.Millisecond)
		running.Add(-1)
	})
	if r := running.Load(); r != 0 {
		t.Fatalf("For returned with %d calls running", r)
	}
	// A helper that has signalled completion may still be unwinding.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > baseline %d after the loop returned", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
