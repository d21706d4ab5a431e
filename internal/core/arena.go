package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Arena pools the solver's large scratch allocations — DP cost tables,
// choice tables, row minima, and the beam's sparse table keys — in
// power-of-two size classes backed by sync.Pool. A cold Transformer p=32
// solve allocates tens of megabytes of tables that die within the solve; when many solves share one Arena (the planner gives every Planner
// one, so cache-miss solves and SolveBatch/Compare fan-outs share it), those
// buffers are recycled instead of re-allocated and re-faulted per solve.
//
// Contract: buffers come back from Get uncleared — callers must fully
// overwrite them before reading (every DP table fill writes its whole index
// range, so the solver never observes stale bytes). Put is optional; a
// buffer that is never returned is simply garbage collected. A nil *Arena is
// valid and allocates directly, so the zero Options still works.
//
// Capacities are rounded up to the next power of two so a recycled buffer
// always satisfies any request in its size class (identical repeated solves
// — the planner's common case — hit the same classes exactly). The rounding
// means resident bytes can reach up to 2x the requested lengths, on top of
// whatever the pools retain between solves; Options.MaxTableEntries counts
// nominal table entries (Π K per table, never less than what is requested
// here), so treat the budget as a working-set bound, not an RSS guarantee.
type Arena struct {
	// pools[kind][class] holds *[]T buffers with cap ≥ 1<<class, one kind
	// per element type.
	pools [bufKinds][maxSizeClass]sync.Pool
	// gets/hits count Get calls and the subset served by a recycled buffer,
	// for tests and diagnostics.
	gets atomic.Int64
	hits atomic.Int64
}

// maxSizeClass bounds the class index: 2^47 float64 entries is far beyond
// any MaxTableEntries a process could hold.
const maxSizeClass = 48

// NewArena returns an empty arena. Safe for concurrent use.
func NewArena() *Arena { return &Arena{} }

// sizeClass returns the smallest c with 1<<c ≥ n (n ≥ 1).
func sizeClass(n int64) int {
	return bits.Len64(uint64(n - 1))
}

// The element types an arena pools, as indices into Arena.pools.
const (
	bufF64 = iota
	bufI32
	bufI64
	bufKinds
)

// get returns a length-n buffer of the given kind with undefined contents.
func get[T any](a *Arena, kind int, n int64) []T {
	if n == 0 {
		return nil
	}
	if a == nil {
		return make([]T, n)
	}
	c := sizeClass(n)
	a.gets.Add(1)
	if c < maxSizeClass {
		if v := a.pools[kind][c].Get(); v != nil {
			a.hits.Add(1)
			return (*(v.(*[]T)))[:n]
		}
		return make([]T, n, int64(1)<<c)
	}
	return make([]T, n)
}

// put recycles a buffer previously returned by get for the same kind.
func put[T any](a *Arena, kind int, s []T) {
	if a == nil || cap(s) == 0 {
		return
	}
	// File under the largest class the capacity fully covers, so a get from
	// that class always receives cap ≥ its requested length.
	c := bits.Len64(uint64(cap(s))) - 1
	if c < maxSizeClass {
		s = s[:0]
		a.pools[kind][c].Put(&s)
	}
}

// GetF64 returns a length-n float64 buffer with undefined contents.
func (a *Arena) GetF64(n int64) []float64 { return get[float64](a, bufF64, n) }

// PutF64 recycles a buffer previously returned by GetF64.
func (a *Arena) PutF64(s []float64) { put(a, bufF64, s) }

// GetI32 returns a length-n int32 buffer with undefined contents.
func (a *Arena) GetI32(n int64) []int32 { return get[int32](a, bufI32, n) }

// PutI32 recycles a buffer previously returned by GetI32.
func (a *Arena) PutI32(s []int32) { put(a, bufI32, s) }

// GetI64 returns a length-n int64 buffer with undefined contents.
func (a *Arena) GetI64(n int64) []int64 { return get[int64](a, bufI64, n) }

// PutI64 recycles a buffer previously returned by GetI64.
func (a *Arena) PutI64(s []int64) { put(a, bufI64, s) }

// Counters reports how many buffer requests the arena served and how many
// were satisfied by a recycled buffer.
func (a *Arena) Counters() (gets, hits int64) {
	if a == nil {
		return 0, 0
	}
	return a.gets.Load(), a.hits.Load()
}
