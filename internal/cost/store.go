package cost

// Cross-model class sharing: intern.go removes repeated table builds *within*
// one model; a ClassStore keeps class tables across model builds. No product
// code uses it — the planner builds every model cold (DESIGN.md "Class store"
// row: a cold build costs milliseconds against the search). It remains only
// for the benchmark harness's cold-build and sweep traces, which construct it
// directly, and goes when they stop. It is keyed by the same
// canonical class fingerprints intern.go computes — identities over machine
// spec, enumeration policy, and node content, never over node IDs or dense
// per-model class numbers — so any two model builds that would construct the
// same table bytes resolve them from one shared entry, across distinct
// graphs, sweep points, and concurrent builds.
//
// Two entry kinds mirror the build phases:
//
//   - vertex entry (vertex class fp): the enumerated configuration list and
//     TL row.
//   - edge entry (edge class fp): the TX table, charged for the transpose it
//     grows once something reads it (edgeTables.transposed).
//
// Entries are immutable once published — models alias the stored slices and
// never write them; a transpose is built once per entry, under its own
// sync.Once — so sharing is value-transparent: a store-enabled build
// is byte-identical to the BuildOptions store-less build, pinned by property
// tests.
//
// Concurrency: lookups singleflight per fingerprint with a ready channel —
// concurrent builds needing the same class block until the first builder
// publishes, then alias its tables. Build errors are never cached (the error
// text names the failing model's own node) and unblock waiters to build —
// and fail — on their own.
//
// Eviction is deterministic LRU by resident bytes: completing a build or
// hitting an entry front-moves it, and publishing evicts exact tail entries
// until the store fits its budget again. An entry evicted while models still
// alias its tables stays valid for those models (slices are reference-held);
// the store merely forgets it for future builds.

import (
	"sync"
	"sync/atomic"

	"pase/internal/canon"
	"pase/internal/itspace"
	"pase/internal/lru"
)

// DefaultClassStoreBytes is the store budget used when NewClassStore is
// given a non-positive limit: 256 MB of class tables, roughly forty
// Transformer-p=32-sized models' worth of distinct classes.
const DefaultClassStoreBytes = 256 << 20

// ClassStoreStats is a snapshot of a store's counters.
type ClassStoreStats struct {
	// Hits counts class references a build resolved from the store (the
	// table build that did not run); Misses counts the builds that ran.
	Hits   int64
	Misses int64
	// Evictions counts entries dropped to keep the store within budget.
	Evictions int64
	// Bytes is the resident table bytes the store currently holds.
	Bytes int64
	// SavedBytes is the cumulative table bytes served by hits — what the
	// store-less builds would have allocated again.
	SavedBytes int64
	// Entries is the current entry count.
	Entries int
}

// classTables is one published class: its tables and their resident bytes.
type classTables struct {
	val   any
	bytes int64
}

// classBuild is one class build in flight. ready is closed when the tables
// are published, or when the build failed: err is only ever set on a failed
// build (never cached), so waiters know to rebuild themselves.
type classBuild struct {
	classTables
	err   error
	ready chan struct{}
}

// ClassStore is a bounded, deterministic, singleflight-guarded cache of
// class-level cost tables, shared by every model build of one planner. Safe
// for concurrent use.
type ClassStore struct {
	mu sync.Mutex
	// cache holds the published classes, LRU by resident bytes; building
	// holds the builds still running (they hold no bytes yet).
	cache     *lru.Cache[canon.Fingerprint, classTables]
	building  map[canon.Fingerprint]*classBuild
	hits      int64
	misses    int64
	evictions int64
	saved     int64
}

// NewClassStore returns a store bounded to maxBytes of resident class
// tables (non-positive selects DefaultClassStoreBytes).
func NewClassStore(maxBytes int64) *ClassStore {
	if maxBytes <= 0 {
		maxBytes = DefaultClassStoreBytes
	}
	s := &ClassStore{building: map[canon.Fingerprint]*classBuild{}}
	s.cache = lru.New(maxBytes,
		func(c classTables) int64 { return c.bytes },
		func(canon.Fingerprint, classTables) { s.evictions++ })
	return s
}

// Stats returns a snapshot of the store's counters.
func (s *ClassStore) Stats() ClassStoreStats {
	if s == nil {
		return ClassStoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return ClassStoreStats{
		Hits:       s.hits,
		Misses:     s.misses,
		Evictions:  s.evictions,
		Bytes:      s.cache.Weight(),
		SavedBytes: s.saved,
		Entries:    s.cache.Len() + len(s.building),
	}
}

// getOrBuild resolves the class keyed by fp: a published entry is a hit, a
// concurrent build is joined, and an absent class runs build exactly once.
// hit reports whether this caller avoided the build; bytes is the entry's
// resident size (what a hit saved). Errors are returned uncached.
func (s *ClassStore) getOrBuild(fp canon.Fingerprint, build func() (any, int64, error)) (val any, hit bool, bytes int64, err error) {
	for {
		s.mu.Lock()
		c, ok := s.cache.Get(fp)
		if !ok {
			if b, joined := s.building[fp]; joined {
				s.mu.Unlock()
				<-b.ready
				if b.err != nil {
					// The builder failed; its entry is gone. Loop to build (and
					// report the error against this model's own nodes).
					continue
				}
				s.mu.Lock()
				s.cache.Get(fp) // front-move, if it is still resident
				c, ok = b.classTables, true
			}
		}
		if ok {
			s.hits++
			s.saved += c.bytes
			s.mu.Unlock()
			return c.val, true, c.bytes, nil
		}
		b := &classBuild{ready: make(chan struct{})}
		s.building[fp] = b
		s.misses++
		s.mu.Unlock()

		b.val, b.bytes, b.err = build()
		s.mu.Lock()
		delete(s.building, fp)
		if b.err == nil {
			// Deterministic LRU eviction: publishing drops exact tail entries
			// until the budget holds. A single entry larger than the whole
			// budget stays resident until the next publish displaces it;
			// refusing it entirely would break the build that is aliasing it
			// right now.
			s.cache.Put(fp, b.classTables)
		}
		s.mu.Unlock()
		close(b.ready)
		if b.err != nil {
			return nil, false, 0, b.err
		}
		return b.val, false, b.bytes, nil
	}
}

// storeTraffic tallies one model build's ClassStore traffic.
type storeTraffic struct{ hits, misses, bytes atomic.Int64 }

// resolveClass returns the tables of class ci: built directly when store is
// nil, else resolved from the store under fps[ci] and counted in t.
func resolveClass[T any](store *ClassStore, t *storeTraffic, fps []canon.Fingerprint, ci int, build func() (T, int64, error)) (T, error) {
	if store == nil {
		val, _, err := build()
		return val, err
	}
	val, hit, bytes, err := store.getOrBuild(fps[ci], func() (any, int64, error) { return build() })
	if err != nil {
		var zero T
		return zero, err
	}
	if hit {
		t.hits.Add(1)
		t.bytes.Add(bytes)
	} else {
		t.misses.Add(1)
	}
	return val.(T), nil
}

// Stored value kinds, one per build phase.

// vertexTables is a vertex class's enumeration and layer-cost row.
type vertexTables struct {
	cfgs []itspace.Config
	tl   []float64
}

// edgeTables is an edge class's TX table, with each side's reps: repU[cu]
// is the first producer configuration whose row of tab is cu's (the same
// quotient vector), repV[cv] the first consumer configuration whose column
// is cv's, and max the table's largest cell. The class stores one
// orientation; its transpose is built by the first caller that asks for it
// (transposed), once, and every model aliasing the class reads that slice.
type edgeTables struct {
	tab  []float64
	repU []int32
	repV []int32
	max  float64

	tOnce sync.Once
	tabT  []float64
}

// transposed returns the producer-minor transpose of tab,
// tabT[cv·ku+cu] = tab[cu·kv+cv], building it on the first call. The Once
// orders the build before every read, so concurrent callers, from any model
// aliasing the class, get the same slice.
func (t *edgeTables) transposed() []float64 {
	t.tOnce.Do(func() {
		ku, kv := len(t.repU), len(t.repV)
		tabT := make([]float64, len(t.tab))
		for cu := range ku {
			for cv, c := range t.tab[cu*kv : cu*kv+kv] {
				tabT[cv*ku+cu] = c
			}
		}
		t.tabT = tabT
	})
	return t.tabT
}

// configBytes estimates the resident bytes of a config list: the slice
// headers plus each configuration's int backing.
func configBytes(cfgs []itspace.Config) int64 {
	b := int64(len(cfgs)) * 24
	for _, c := range cfgs {
		b += int64(len(c)) * 8
	}
	return b
}
