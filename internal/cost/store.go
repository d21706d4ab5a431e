package cost

// A ClassStore keeps class tables across model builds, keyed by intern.go's
// class fingerprints. No product code uses it (DESIGN.md "Referee-pinned
// residue"); the benchmark harness's cold and sweep traces read its Stats.

import (
	"sync"

	"pase/internal/canon"
)

// DefaultClassStoreBytes is the budget a non-positive NewClassStore limit selects.
const DefaultClassStoreBytes = 256 << 20

// ClassStoreStats is a snapshot of a store's counters.
type ClassStoreStats struct {
	// Hits counts class references a build resolved from the store (the
	// table build that did not run); Misses counts the builds that ran.
	Hits   int64
	Misses int64
	// Bytes is the resident table bytes the store currently holds.
	Bytes int64
}

// ClassStore maps class fingerprints to their tables. A class is stored
// only while the resident bytes stay within the budget, and nothing is
// evicted. Stored tables are never written, so a build through a store is
// byte-identical to a store-less build. Safe for concurrent use.
type ClassStore struct {
	mu       sync.Mutex
	maxBytes int64
	classes  map[canon.Fingerprint]any
	stats    ClassStoreStats
}

// NewClassStore returns a store bounded to maxBytes of resident class
// tables (non-positive selects DefaultClassStoreBytes).
func NewClassStore(maxBytes int64) *ClassStore {
	if maxBytes <= 0 {
		maxBytes = DefaultClassStoreBytes
	}
	return &ClassStore{maxBytes: maxBytes, classes: map[canon.Fingerprint]any{}}
}

// Stats returns a snapshot of the store's counters.
func (s *ClassStore) Stats() ClassStoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// lookup returns the tables stored under fp, counting a hit.
func (s *ClassStore) lookup(fp canon.Fingerprint) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	val, ok := s.classes[fp]
	if ok {
		s.stats.Hits++
	}
	return val, ok
}

// publish counts the build of fp's tables that just ran and stores val if
// it fits the budget. A builder that finds fp published by a concurrent
// build adopts the published tables, so every model built through one store
// aliases one value per class.
func (s *ClassStore) publish(fp canon.Fingerprint, val any, bytes int64) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Misses++
	if published, ok := s.classes[fp]; ok {
		return published
	}
	if s.stats.Bytes+bytes <= s.maxBytes {
		s.classes[fp] = val
		s.stats.Bytes += bytes
	}
	return val
}
