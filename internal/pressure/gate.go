// Package pressure is the single-node robustness layer under the serving
// stack: a bounded priority admission gate in front of the planner's
// underlying solves (so overload sheds fast instead of queueing without
// bound), and a deterministic fault-injection plan (so the overload,
// degradation, and panic-isolation behaviors above it are exercised in tests
// and CI rather than only under real overload).
//
// The gate bounds two quantities: how many underlying solves run at once
// (MaxInFlight) and how many admitted requests may wait for a slot
// (MaxQueue). A request arriving to a full queue is rejected immediately
// with ErrShed — load shedding is always an immediate structured rejection,
// never silent blocking — so a saturated daemon answers every caller in
// bounded time. Waiting requests are granted slots strictly by priority
// (higher first) and FIFO within a priority (arrival order, tracked by a
// monotone sequence number), so the grant order is deterministic given the
// arrival order.
package pressure

import (
	"container/heap"
	"context"
	"errors"
	"sync"
)

// ErrShed is returned by Gate.Acquire when the admission queue is full: the
// request was rejected immediately (load shedding) and should be retried
// later or routed to another instance. Daemons map it to HTTP 429 with a
// Retry-After hint.
var ErrShed = errors.New("pressure: request shed: admission queue full")

// DefaultMaxQueue is the waiting-request bound used when GateConfig.MaxQueue
// is zero: deep enough to absorb a burst, shallow enough that queue latency
// stays bounded by a few solves.
const DefaultMaxQueue = 64

// GateConfig sizes a Gate.
type GateConfig struct {
	// MaxInFlight bounds concurrently held slots (must be >= 1).
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot; an arrival beyond it is
	// shed immediately. Zero selects DefaultMaxQueue.
	MaxQueue int
}

// GateStats is a snapshot of a gate's counters.
type GateStats struct {
	// InFlight / QueueDepth are gauges: slots currently held and requests
	// currently waiting.
	InFlight   int
	QueueDepth int
	// Admitted counts slot grants (immediate or after queueing), Queued
	// counts requests that had to wait, and Shed counts immediate
	// queue-full rejections.
	Admitted int64
	Queued   int64
	Shed     int64
}

// waiter is one queued Acquire: granted flips under the gate's lock when a
// released slot is handed to it (ch is then closed), so a concurrently
// cancelling waiter knows whether it owns a slot it must give back.
type waiter struct {
	prio    int
	seq     uint64
	ch      chan struct{}
	granted bool
	index   int
}

// waiterQueue orders waiters by (priority desc, arrival seq asc).
type waiterQueue []*waiter

func (q waiterQueue) Len() int { return len(q) }
func (q waiterQueue) Less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio > q[j].prio
	}
	return q[i].seq < q[j].seq
}
func (q waiterQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *waiterQueue) Push(x any) {
	w := x.(*waiter)
	w.index = len(*q)
	*q = append(*q, w)
}
func (q *waiterQueue) Pop() any {
	old := *q
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return w
}

// Gate is a bounded priority admission gate. Safe for concurrent use.
type Gate struct {
	maxInFlight int
	maxQueue    int

	mu       sync.Mutex
	inflight int
	queue    waiterQueue
	seq      uint64
	admitted int64
	queued   int64
	shed     int64
}

// NewGate returns a gate admitting at most cfg.MaxInFlight concurrent
// holders with at most cfg.MaxQueue waiting. A non-positive MaxInFlight is
// clamped to 1.
func NewGate(cfg GateConfig) *Gate {
	inflight := cfg.MaxInFlight
	if inflight < 1 {
		inflight = 1
	}
	queue := cfg.MaxQueue
	if queue <= 0 {
		queue = DefaultMaxQueue
	}
	return &Gate{maxInFlight: inflight, maxQueue: queue}
}

// Acquire obtains a slot: immediately when one is free and no one is
// waiting, after queueing behind higher-priority and earlier arrivals
// otherwise. depth is the queue depth observed at arrival (0 for an
// immediate grant) — callers use it as the pressure signal for graceful
// degradation. It returns ErrShed immediately when the queue is full, and
// ctx's cause when the caller cancels while waiting; it never blocks beyond
// ctx. Every nil-error return must be paired with exactly one Release.
func (g *Gate) Acquire(ctx context.Context, priority int) (depth int, err error) {
	g.mu.Lock()
	if g.inflight < g.maxInFlight && len(g.queue) == 0 {
		g.inflight++
		g.admitted++
		g.mu.Unlock()
		return 0, nil
	}
	if depth = len(g.queue); depth >= g.maxQueue {
		g.shed++
		g.mu.Unlock()
		return depth, ErrShed
	}
	w := &waiter{prio: priority, seq: g.seq, ch: make(chan struct{})}
	g.seq++
	heap.Push(&g.queue, w)
	g.queued++
	depth = len(g.queue)
	g.mu.Unlock()

	select {
	case <-w.ch:
		return depth, nil
	case <-ctx.Done():
		g.mu.Lock()
		if w.granted {
			// The slot was handed to this waiter in the same instant its
			// context fired; it owns the slot and must pass it on.
			g.mu.Unlock()
			g.Release()
			return depth, context.Cause(ctx)
		}
		heap.Remove(&g.queue, w.index)
		g.mu.Unlock()
		return depth, context.Cause(ctx)
	}
}

// Release returns a slot: the highest-priority, earliest-arrived waiter (if
// any) inherits it directly, otherwise the in-flight count drops.
func (g *Gate) Release() {
	g.mu.Lock()
	if len(g.queue) > 0 {
		w := heap.Pop(&g.queue).(*waiter)
		w.granted = true
		g.admitted++
		g.mu.Unlock()
		close(w.ch)
		return
	}
	g.inflight--
	g.mu.Unlock()
}

// Stats returns a snapshot of the gate's counters. A nil gate reports zeros,
// so callers with admission control disabled need no special casing.
func (g *Gate) Stats() GateStats {
	if g == nil {
		return GateStats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return GateStats{
		InFlight:   g.inflight,
		QueueDepth: len(g.queue),
		Admitted:   g.admitted,
		Queued:     g.queued,
		Shed:       g.shed,
	}
}
