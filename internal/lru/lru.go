// Package lru is the one bounded least-recently-used cache under the
// planner's result cache and pased's request memo.
package lru

// Cache is a bounded least-recently-used cache with deterministic eviction:
// a Put that takes the cache over its limit evicts the least-recently-used
// entry (recency is updated by both Get hits and Put). It is not
// goroutine-safe; every owner serializes access under its own mutex.
type Cache[K comparable, V any] struct {
	limit   int
	entries map[K]*entry[K, V]
	// head is the most recently used entry, tail the least.
	head, tail *entry[K, V]
	onEvict    func(K, V)
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New returns a cache holding at most limit entries. onEvict, when non-nil,
// sees every entry eviction drops.
func New[K comparable, V any](limit int, onEvict func(K, V)) *Cache[K, V] {
	return &Cache[K, V]{
		limit:   limit,
		entries: make(map[K]*entry[K, V]),
		onEvict: onEvict,
	}
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
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

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
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
func (c *Cache[K, V]) Get(k K) (V, bool) {
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

// Put inserts or refreshes an entry as the most recently used, then evicts
// the least-recently-used entry if the cache is over its limit. A limit of
// 0 or less caches nothing.
func (c *Cache[K, V]) Put(k K, v V) {
	if c.limit <= 0 {
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
	e := &entry[K, V]{key: k, val: v}
	c.entries[k] = e
	c.pushFront(e)
	if len(c.entries) > c.limit {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.key)
		if c.onEvict != nil {
			c.onEvict(lru.key, lru.val)
		}
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return len(c.entries) }

// Each visits entries from least to most recently used without touching
// recency. Snapshots iterate in this order so that restoring via Put (which
// marks each entry most recent) reproduces the original recency order.
func (c *Cache[K, V]) Each(f func(K, V)) {
	for e := c.tail; e != nil; e = e.prev {
		f(e.key, e.val)
	}
}
