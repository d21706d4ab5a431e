package planner

// lruCache is a bounded least-recently-used cache with deterministic
// eviction: Put beyond capacity always evicts the single least-recently-used
// entry (recency is updated by both Get hits and Put). It is not
// goroutine-safe; the Planner serializes access under its own mutex.
type lruCache[K comparable, V any] struct {
	cap     int
	entries map[K]*lruEntry[K, V]
	// head is the most recently used entry, tail the least.
	head, tail *lruEntry[K, V]
	onEvict    func(K, V)
}

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

func newLRU[K comparable, V any](capacity int, onEvict func(K, V)) *lruCache[K, V] {
	return &lruCache[K, V]{
		cap:     capacity,
		entries: make(map[K]*lruEntry[K, V]),
		onEvict: onEvict,
	}
}

func (c *lruCache[K, V]) unlink(e *lruEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *lruCache[K, V]) pushFront(e *lruEntry[K, V]) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Get returns the cached value and marks it most recently used.
func (c *lruCache[K, V]) Get(k K) (V, bool) {
	e, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return e.val, true
}

// Put inserts or refreshes an entry, evicting the least-recently-used one
// when over capacity. A capacity of 0 or less caches nothing.
func (c *lruCache[K, V]) Put(k K, v V) {
	if c.cap <= 0 {
		return
	}
	if e, ok := c.entries[k]; ok {
		e.val = v
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		return
	}
	e := &lruEntry[K, V]{key: k, val: v}
	c.entries[k] = e
	c.pushFront(e)
	for len(c.entries) > c.cap {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.key)
		if c.onEvict != nil {
			c.onEvict(lru.key, lru.val)
		}
	}
}

// Len returns the number of cached entries.
func (c *lruCache[K, V]) Len() int { return len(c.entries) }

// Each visits entries from least to most recently used without touching
// recency. Snapshots iterate in this order so that restoring via Put (which
// marks each entry most recent) reproduces the original recency order.
func (c *lruCache[K, V]) Each(f func(K, V)) {
	for e := c.tail; e != nil; e = e.prev {
		f(e.key, e.val)
	}
}
