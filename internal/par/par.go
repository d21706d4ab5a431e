// Package par runs the independent iterations of a loop on a fixed set of
// workers. Each worker claims the next index off one shared counter, so a slow
// iteration never holds back the others, and the caller's goroutine is always
// worker 0. Nothing here orders the iterations: a loop whose iterations write
// disjoint state produces the same bytes at every worker count.
package par

import (
	"sync"
	"sync/atomic"
)

// Pool is workers−1 helper goroutines that live until Close, for a caller
// that runs many loops in a row and would otherwise start goroutines for
// each. The zero-helper Pool of one worker runs every loop on the caller.
type Pool struct {
	helpers int
	jobs    chan func()
	wg      sync.WaitGroup
}

// NewPool starts workers−1 helpers (none when workers ≤ 1).
func NewPool(workers int) *Pool {
	p := &Pool{helpers: max(workers-1, 0)}
	p.jobs = make(chan func(), p.helpers) // a loop sends one job per helper
	p.wg.Add(p.helpers)
	for range p.helpers {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// Close stops the helpers and waits for them. Call it once, after the last
// For has returned.
func (p *Pool) Close() {
	close(p.jobs)
	p.wg.Wait()
}

// For calls f(w, i) once for every i in [0, n) and returns when every call
// has returned. w is the worker running the call, below the pool's worker
// count; at most n workers take part.
func (p *Pool) For(n int, f func(w, i int)) {
	loop(n, p.helpers, func(job func()) { p.jobs <- job }, f)
}

// For is Pool.For on min(workers, n) workers started for this loop alone.
func For(n, workers int, f func(w, i int)) {
	loop(n, workers-1, func(job func()) { go job() }, f)
}

// loop runs f over [0, n) on the caller plus up to helpers helpers, each
// handed to start, which runs its job on another goroutine.
func loop(n, helpers int, start func(job func()), f func(w, i int)) {
	helpers = max(min(helpers, n-1), 0)
	var next atomic.Int64
	run := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			f(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for w := 1; w <= helpers; w++ {
		start(func() {
			defer wg.Done()
			run(w)
		})
	}
	run(0)
	wg.Wait()
}
