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

// resolve returns the tables stored under fp, or runs build outside the lock
// and stores its tables if they fit the budget. A builder that finds fp
// published by a concurrent build adopts the published tables, so every
// model built through one store aliases one value per class.
func (s *ClassStore) resolve(fp canon.Fingerprint, build func() (any, int64, error)) (any, error) {
	s.mu.Lock()
	if val, ok := s.classes[fp]; ok {
		s.stats.Hits++
		s.mu.Unlock()
		return val, nil
	}
	s.stats.Misses++
	s.mu.Unlock()
	val, bytes, err := build()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if published, ok := s.classes[fp]; ok {
		return published, nil
	}
	if s.stats.Bytes+bytes <= s.maxBytes {
		s.classes[fp] = val
		s.stats.Bytes += bytes
	}
	return val, nil
}
