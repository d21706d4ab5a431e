// Package par runs the independent iterations of a loop on a fixed number of
// goroutines. Each claims the next index off one shared counter, so a slow
// iteration never holds back the others, and the caller's goroutine always
// takes part. Nothing here orders the iterations: a loop whose iterations
// write disjoint state produces the same bytes at every worker count.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls f(i) once for every i in [0, n) on the caller plus up to
// min(workers, n)−1 goroutines started for this loop alone, and returns when
// every call has returned. Workers ≤ 1 runs every call on the caller.
func For(n, workers int, f func(i int)) {
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			f(i)
		}
	}
	helpers := max(min(workers, n)-1, 0)
	var wg sync.WaitGroup
	wg.Add(helpers)
	for range helpers {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}
