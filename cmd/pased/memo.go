package main

import (
	"bytes"
	"crypto/sha256"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pase"
	"pase/internal/lru"
)

// memoCap bounds the request memo: twice the default -result-cache, so every
// cached result can be reached through two spellings of its request before
// the least recently asked is forgotten. A forgotten body costs one trip down the slow
// path, nothing else.
const memoCap = 512

// memoKey is the SHA-256 of a request's own body bytes.
type memoKey = [sha256.Size]byte

// memoEntry is what the daemon keeps about a request body it has already
// decoded, lowered and prepared: enough to answer a repeat of the same bytes
// without doing any of that again.
type memoEntry struct {
	fp     pase.Fingerprint
	name   string // the export document's display name
	isSpec bool
	// head and tail are the body's stored answer: the encoded 200 body of a
	// cache hit, split around the total_ns value, which is the only part of a
	// hit that differs between requests. from is the result-cache entry the
	// bytes were encoded from, and their validity: they are served only while
	// Planner.Lookup still returns that very entry, so an eviction, a later
	// solve's replacement or a snapshot restore leaves them unreachable, and a
	// result that never entered the cache (pressure-degraded or fleet
	// fallback) never has bytes at all. Bytes that have become unreachable
	// are replaced when the body is next answered.
	from       *pase.Result
	head, tail []byte
}

// requestMemo maps request bodies to memoEntry, at most memoCap of them,
// forgetting the least recently asked first. Keying on the body's bytes is
// sound for the life of the process: the only thing lowering reads besides
// the body, -max-gpus, is fixed at boot. A body the memo has
// not seen — other whitespace, key order or priority — just takes the slow
// path and is remembered under its own key.
type requestMemo struct {
	mu      sync.Mutex
	entries *lru.Cache[memoKey, memoEntry]

	hits, misses atomic.Int64
}

func newRequestMemo() *requestMemo {
	return &requestMemo{entries: lru.New[memoKey, memoEntry](memoCap, nil)}
}

func (m *requestMemo) get(k memoKey) (memoEntry, bool) {
	m.mu.Lock()
	e, ok := m.entries.Get(k)
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return e, ok
}

// put remembers e under k, replacing what k held.
func (m *requestMemo) put(k memoKey, e memoEntry) {
	m.mu.Lock()
	m.entries.Put(k, e)
	m.mu.Unlock()
}

// totalKey opens the total_ns line of an encoded solveResponse's timings. Its
// last occurrence is the response's own: the timings follow the strategy
// document, and a string cannot hold a raw newline.
const totalKey = "\n    \"total_ns\": "

// withHit returns e carrying body — the reference encoder's output for a cache
// hit on from — as its stored answer, or e unchanged if body has no total_ns
// line to split at.
func (e memoEntry) withHit(from *pase.Result, body []byte) memoEntry {
	i := bytes.LastIndex(body, []byte(totalKey))
	if i < 0 {
		return e
	}
	i += len(totalKey)
	j := bytes.IndexByte(body[i:], ',')
	if j < 0 {
		return e
	}
	e.from, e.head, e.tail = from, body[:i], body[i+j:]
	return e
}

// hitBufs holds the buffers /v1/solve assembles stored answers in. A buffer
// only ever holds a copy of a memo entry's bytes, and it is back in the pool
// only once its answer is written.
var hitBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendHit appends the stored answer, with this request's total_ns filled in,
// to dst, which it first grows to hold all of it.
func (e memoEntry) appendHit(dst []byte, start time.Time) []byte {
	dst = slices.Grow(dst, len(e.head)+20+len(e.tail)) // 20 digits hold any int64
	dst = append(dst, e.head...)
	dst = strconv.AppendInt(dst, int64(time.Since(start)), 10)
	return append(dst, e.tail...)
}
