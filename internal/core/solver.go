// Package core implements the PaSE dynamic program: FINDBESTSTRATEGY (paper
// Fig. 4) over recurrence (4), computing the minimum-cost parallelization
// strategy φ̂ = argmin F(G, φ) for a computation graph under the analytic
// cost model of package cost.
//
// The same DP engine runs over any vertex ordering: with GENERATESEQ it is
// the paper's efficient algorithm; with a breadth-first ordering it is the
// naive Section III-A baseline (recurrence 2), whose dependent sets explode
// on graphs like InceptionV3 — the engine then fails with ErrOOM exactly as
// the paper's Table I reports.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/seq"
)

// ErrOOM is returned when the DP tables would exceed the configured memory
// budget, mirroring the paper's OOM entries for breadth-first ordering on
// InceptionV3 and Transformer.
var ErrOOM = errors.New("core: dependent-set DP tables exceed memory budget")

// KernelVersion labels the numerics of this package's solvers. Bump it
// whenever a table entry or a returned cost can change by as much as one bit
// for some input — a new summation order counts, a faster route to the same
// bits does not — so that state computed under the old numerics (the
// planner's warm-restart snapshots) is discarded rather than served beside
// fresh solves. v1 was the linear argmin scan; v2 is the bound-pruned scan,
// whose summation order moved 15 of 179 golden costs by one ulp.
const KernelVersion = "core.kernel/v2"

// DefaultMaxTableEntries is the live-table budget used when
// Options.MaxTableEntries is zero (~200 MB of full cost+choice entries). It
// is exported so request fingerprinting can normalize "zero" and "explicit
// default" to the same solve identity.
const DefaultMaxTableEntries = 1 << 24

// Options tunes the solver.
type Options struct {
	// MaxTableEntries bounds the number of simultaneously live DP table
	// entries, counted nominally: a table counts Π K over its dependent set
	// (each entry a float64 cost plus an int32 choice; a cost table freed
	// after its last reader leaves only the choice third of its entries live)
	// although it is stored as a quotient (see qtable), usually several times
	// smaller. Zero selects DefaultMaxTableEntries.
	MaxTableEntries int64
	// Workers sets the number of goroutines filling each vertex's DP table
	// (the φ iterations of recurrence 4 are independent). Zero — the default
	// — uses all available CPUs (GOMAXPROCS); set 1 for the explicit serial
	// mode matching the paper's single-threaded prototype. Results are
	// byte-identical at any worker count.
	Workers int
}

func (o Options) maxEntries() int64 {
	if o.MaxTableEntries > 0 {
		return o.MaxTableEntries
	}
	return DefaultMaxTableEntries
}

func (o Options) workers() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// fillChunkEntries caps one chunk of a parallel table fill at 16K entries:
// the chunk's output (16K float64 costs + 16K int32 choices ≈ 192 KB) plus
// the kv-long input rows it folds stays L2-resident per core, and a big fill
// splits into many more chunks than workers so the atomic work-claiming
// balances stragglers instead of one static split.
const fillChunkEntries = 1 << 14

// parallelThreshold is the table size below which a chunked parallel fill is
// not worth the dispatch overhead; minChunkEntries floors the chunk size so
// the per-chunk odometer positioning and base sort stay amortized to noise.
// Variables only so tests can force chunk boundaries into tiny tables.
var (
	parallelThreshold int64 = 4096
	minChunkEntries   int64 = 1 << 10
)

// fillChunkSize picks the chunk length for a table of the given size: aim
// for several chunks per worker, within [minChunkEntries, fillChunkEntries].
func fillChunkSize(total int64, workers int) int64 {
	c := (total + int64(workers)*4 - 1) / (int64(workers) * 4)
	if c > fillChunkEntries {
		c = fillChunkEntries
	}
	if c < minChunkEntries {
		c = minChunkEntries
	}
	return c
}

// fillPool is the solve-lifetime worker pool the chunked table fills
// dispatch to: nw−1 helper goroutines started once per Solve (the caller's
// goroutine is the nw-th worker), instead of spawning fresh goroutines for
// every vertex's fill.
type fillPool struct {
	jobs chan func()
	wg   sync.WaitGroup
}

func newFillPool(helpers int) *fillPool {
	p := &fillPool{jobs: make(chan func(), helpers)}
	for i := 0; i < helpers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for f := range p.jobs {
				f()
			}
		}()
	}
	return p
}

// close drains and stops the helpers. Safe only after every dispatched job
// has completed (each fill waits for its own jobs before returning).
func (p *fillPool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// rowSrc is one input of a vertex's scan: a table laid out as rows, one cost
// per configuration class of the scanned vertex — an oriented TX table, whose
// rows are the kv configurations themselves, or the quotient table of a subset
// (see qtable), whose digit 0 is the scanned vertex. Rows are addressed mixed
// radix, first digit fastest, by the φ digits in digit: digit[j] selects one of
// dim[j] row classes through cls[j].
type rowSrc struct {
	vals  []float64
	w     int       // row width: the classes of the scanned vertex's configurations
	col   []int32   // configuration → column of the row; nil when it is the column
	mins  []float64 // per-row minimum; fast rows only
	digit []int
	dim   []int
	cls   [][]int32 // per digit: value → row class; nil when it is the class
}

// digUpd is one entry of a per-digit update list: the digit's value a puts row
// index i at classIn(cls, a)·stride.
type digUpd struct {
	i      int
	stride int64
	cls    []int32
}

// classIn is value a's class under classOf; a nil classOf is the identity.
func classIn(classOf []int32, a int) int {
	if classOf == nil {
		return a
	}
	return int(classOf[a])
}

// classHashMask is ANDed into every row hash of digitClasses. A variable only
// so a test can zero it, making every hash collide, and prove that the exact
// compare alone decides a merge.
var classHashMask = ^uint64(0)

// digitClasses partitions the values 0..kd[k]−1 of every φ digit into classes
// the scan cannot tell apart: a and b are equivalent when every row source
// that reads the digit selects bit-identical rows under both, for every
// setting of the source's other digits. A scan at φ and a scan at φ with each
// digit replaced by its class representative then read the same bits in every
// row, so they produce the same minimum, the same argmin and the same
// candidate count, and one of them is enough. Such values are common: two
// configurations of a neighbour that differ only in a dimension the shared
// tensor does not carry select identical TX rows, and the DP tables built from
// those rows inherit the equality. A digit no row reads has one class.
//
// Sources are compared as stored. A child table holds one column per class of
// the scanned vertex's configurations and one row per combination of its own
// digits' classes, and every column and every row class has a member: two
// values select bit-identical rows of the expanded table exactly when they
// select bit-identical stored rows — which they do trivially where the child
// already has them in one class.
//
// Detection is one hash pass over each source — every row is hashed once and
// its hash added, keyed by which of the row class's rows it is, to the sum of
// the row class it belongs to under each of the source's digits, so the pass
// runs under par in any chunking; a value's sum is that of its row classes —
// and then, digit by digit and value by value, an exact compare against each
// earlier representative with the same sum: equal rows always hash equal,
// values with unequal sums are never compared, and a hash alone never merges
// two values, so the classes are exactly the bit-identity classes whatever the
// hash function does. classOf[k] maps a value to its class — nil where every
// value is its own — reps[k] a class to its smallest value, ascending;
// reps[k][0] is 0. stop is the fill's cancellation poll; after it fires the
// result is meaningless.
func digitClasses(srcs []rowSrc, kd []int, par func(total int64, f func(lo, hi int64)), stop func() bool) (classOf [][]int32, reps [][]int) {
	sums := make([][]uint64, len(kd))
	for s := range srcs {
		src := &srcs[s]
		csum := make([][]atomic.Uint64, len(src.digit)) // per digit and row class
		for j, k := range src.digit {
			if kd[k] > 1 {
				csum[j] = make([]atomic.Uint64, src.dim[j])
			}
		}
		w := int64(src.w)
		par(int64(len(src.vals))/w, func(lo, hi int64) {
			for r := lo; r < hi; r++ {
				if r&cancelCheckMask == 0 && stop() {
					return
				}
				h := rowHash(uint64(s), src.vals[r*w:(r+1)*w])
				rem, stride := r, int64(1)
				for j, d := range src.dim {
					a := rem % int64(d)
					rem /= int64(d)
					if csum[j] != nil {
						x := (h ^ uint64(r-a*stride)) * 0xBF58476D1CE4E5B9
						csum[j][a].Add((x ^ x>>31) & classHashMask)
					}
					stride *= int64(d)
				}
			}
		})
		for j, k := range src.digit {
			if csum[j] == nil {
				continue
			}
			if sums[k] == nil {
				sums[k] = make([]uint64, kd[k])
			}
			for a := range sums[k] {
				sums[k][a] += csum[j][classIn(src.cls[j], a)].Load()
			}
		}
	}
	classOf = make([][]int32, len(kd))
	reps = make([][]int, len(kd))
	for k := range kd {
		cls := make([]int32, kd[k])
		reps[k] = []int{0}
		for a := 1; a < kd[k] && sums[k] != nil; a++ {
			if stop() {
				return classOf, reps
			}
			c := slices.IndexFunc(reps[k], func(b int) bool {
				return sums[k][b] == sums[k][a] && sameRows(srcs, k, a, b)
			})
			if c < 0 {
				c = len(reps[k])
				reps[k] = append(reps[k], a)
			}
			cls[a] = int32(c)
		}
		if len(reps[k]) < kd[k] {
			classOf[k] = cls
		}
	}
	return classOf, reps
}

// rowHash hashes the bit patterns of a row.
func rowHash(seed uint64, row []float64) uint64 {
	h := seed
	for _, x := range row {
		h = (h ^ math.Float64bits(x)) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

// sameRows reports whether values a and b of φ digit k select bit-identical
// rows in every source that reads it. Under one setting of the source's slower
// digits a row class is blk consecutive costs; the settings are blk·dim apart.
func sameRows(srcs []rowSrc, k, a, b int) bool {
	for s := range srcs {
		src := &srcs[s]
		blk := int64(src.w)
		for j, dg := range src.digit {
			ca, cb := int64(0), int64(0) // a digit that is not k selects the same rows under a and b
			if dg == k {
				ca, cb = int64(classIn(src.cls[j], a)), int64(classIn(src.cls[j], b))
			}
			for o := int64(0); ca != cb && o < int64(len(src.vals)); o += blk * int64(src.dim[j]) {
				x, y := src.vals[o+ca*blk:][:blk], src.vals[o+cb*blk:][:blk]
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
						return false
					}
				}
			}
			blk *= int64(src.dim[j])
		}
	}
	return true
}

// baseEnt is one candidate of the bound-pruned scan: configuration c and its
// base cost b (layer cost plus the rows the fastest digit does not move).
type baseEnt struct {
	b float64
	c int32
}

func entLess(x, y baseEnt) bool { return x.b < y.b || x.b == y.b && x.c < y.c }

// sortEnts sorts a ascending by base cost, ties by configuration index — a
// total order, so the result does not depend on the algorithm. It is a
// bottom-up merge sort over insertion-sorted runs with tmp (len(a)) as the
// second buffer: the comparison inlines, which slices.SortFunc's comparator
// call does not (1.2x on the whole Transformer p=32 solve), and the worst
// case stays O(n log n) on any input.
func sortEnts(a, tmp []baseEnt) {
	const run = 8
	for lo := 0; lo < len(a); lo += run {
		r := a[lo:min(lo+run, len(a))]
		for j := 1; j < len(r); j++ {
			e := r[j]
			k := j
			for ; k > 0 && entLess(e, r[k-1]); k-- {
				r[k] = r[k-1]
			}
			r[k] = e
		}
	}
	src, dst := a, tmp
	for w := run; w < len(a); w *= 2 {
		for lo := 0; lo < len(a); lo += 2 * w {
			mid, hi := min(lo+w, len(a)), min(lo+2*w, len(a))
			i, j := lo, mid
			for k := lo; k < hi; k++ {
				if j >= hi || i < mid && !entLess(src[j], src[i]) {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
			}
		}
		src, dst = dst, src
	}
	if len(a) > 0 && &src[0] != &a[0] {
		copy(a, src)
	}
}

// fillScratch is one chunk's odometer state — digit vector, row indices, the
// sorted base vector with its merge buffer and the fast rows' current minima —
// pooled so the many chunks of a big fill don't each allocate five slices. It
// holds indices and its own buffers only: the current rows are re-sliced from
// their source tables where they are read, so a pooled scratch can never pin a
// freed, evicted or snapshot table, and the scan's inner loops store no
// pointer into the heap. Contents are undefined on Get; every fill fully
// initializes what it reads (digits are zeroed explicitly: scans only position
// a subset of them).
type fillScratch struct {
	digits []int
	ridx   []int64
	ents   []baseEnt
	tmp    []baseEnt
	fmin   []float64
}

var fillScratchPool = sync.Pool{New: func() any { return new(fillScratch) }}

func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func getFillScratch(ndep, nrows, kv, nfast int) *fillScratch {
	sc := fillScratchPool.Get().(*fillScratch)
	sc.digits = grown(sc.digits, ndep)
	sc.ridx = grown(sc.ridx, nrows)
	sc.ents = grown(sc.ents, kv)
	sc.tmp = grown(sc.tmp, kv)
	sc.fmin = grown(sc.fmin, nfast)
	clear(sc.digits)
	return sc
}

func (sc *fillScratch) release() { fillScratchPool.Put(sc) }

// cancelCheckMask sets the cancellation polling granularity inside a table
// fill: every (cancelCheckMask+1) table entries each fill goroutine does one
// non-blocking read of ctx.Done(). 4096 entries amortize the channel poll to
// noise (<<1% of the scan work) while keeping worst-case cancellation
// latency in the low milliseconds even on Transformer p=32 tables. With a
// Background context (no Done channel) the checks compile down to a nil
// test — the default solve path pays nothing.
const cancelCheckMask = 4096 - 1

// Stats reports the work the solver performed.
type Stats struct {
	// MaxDepSize is M, the largest dependent set of the ordering used.
	MaxDepSize int
	// MaxTable is the largest single DP table (Π K over one dependent set).
	MaxTable int64
	// TotalEntries is the summed size of the distinct DP tables of the solve:
	// positions of one table class (see tableClasses) share a table, which is
	// counted once. This and every other entry count below is nominal — Π K
	// over the dependent set, what the budget charges — not the entries the
	// quotient (see qtable) stores.
	TotalEntries int64
	// SharedPositions is how many positions of the ordering took the table of
	// an earlier position of their class instead of filling their own, and
	// SharedEntries the summed size those tables would have had: TotalEntries
	// + SharedEntries is the per-position total. Both are zero for a model
	// built without interning, where no two positions have an input in common.
	SharedPositions int
	SharedEntries   int64
	// PeakLiveEntries is the largest number of simultaneously live table
	// entries (in full cost+choice entry equivalents): a cost table is freed
	// once the last fill that reads it — through any position of its class —
	// completes, so this — not TotalEntries — is what the memory budget
	// bounds. It counts a fill's scratch too, the row minima, at their stored
	// length. A solve succeeds exactly when the budget is at least this.
	PeakLiveEntries int64
	// States is the number of table-cell evaluations the fills performed, one
	// fill per table class: the (φ, C) candidates the bound-pruned scan
	// actually evaluated, one scan per combination of digit classes (see
	// digitClasses). It depends on table data alone, so it repeats exactly at
	// every worker count, under every budget that admits the solve, and
	// whether or not the tables are retained. A beam pass counts the same
	// thing for its sparse join: the (child entry or digit value, partial)
	// candidates its generation steps evaluated before the frontier's
	// threshold stopped them, compatible or not, summed over the passes of a
	// SolveBeam.
	States int64
	// ScanSpace is what States would be without the bound: every (φ, C)
	// candidate of the scans that ran — Π classes · kv per vertex, summed over
	// the fills that ran — so States/ScanSpace is the share of the candidate
	// space the scan visited.
	ScanSpace int64
	// PrunedConfigs is always 0; it stays because benchmark/cold.go sums it.
	PrunedConfigs int
	// KEffective is the largest per-vertex configuration count the DP
	// iterated over. It equals the paper's K (cost.Model.MaxK).
	KEffective int
	// VertexClasses / EdgeClasses are the model's structural-sharing class
	// counts: how many distinct vertex and edge cost tables the build
	// actually constructed (repeated layers alias the same tables).
	VertexClasses int
	EdgeClasses   int
	// TableBytes is the model's resident cost-table footprint (shared
	// slices counted once); SharedTableBytes is what interning saved versus
	// a per-occurrence build.
	TableBytes       int64
	SharedTableBytes int64
	// Incremental re-solve accounting (Resolve only): DirtyPositions is how
	// many DP tables were actually re-filled, ReusedEntries how many entries
	// of distinct tables were served unchanged from the snapshot. States above
	// counts only the re-filled work, so States/ (a full solve's States) is
	// the delta's cost fraction.
	DirtyPositions int
	ReusedEntries  int64
}

// Result is a solved strategy.
type Result struct {
	// Cost is R_V(|V|, ∅) = min_φ F(G, φ), in the model's pricing units —
	// estimated per-step seconds under the default cost.TLSeconds/TXSeconds
	// pricing (cost.Model.PaperEval is the Eq. 1 FLOP-unit variant).
	Cost float64
	// Idx holds the chosen configuration index of every node.
	Idx []int
	// Strategy is the materialized best strategy.
	Strategy graph.Strategy
	// Seq is the vertex ordering the DP ran over.
	Seq   *seq.Sequence
	Stats Stats
}

// FindBestStrategy runs the paper's FINDBESTSTRATEGY: GENERATESEQ ordering
// followed by the dependent-set dynamic program, without cancellation (a
// background context). Use Solve directly for a cancellable run.
func FindBestStrategy(m *cost.Model, opts Options) (*Result, error) {
	return Solve(context.Background(), m, seq.Generate(m.G), opts)
}

// NaiveBF runs the Section III-A baseline: the same recurrence over a
// breadth-first ordering, whose dependent sets are the naive DB(i).
func NaiveBF(m *cost.Model, opts Options) (*Result, error) {
	return Solve(context.Background(), m, seq.BFS(m.G), opts)
}

// qtable is the DP table of one position j, stored as the quotient the fill
// computes it as: cost and choice hold one entry per combination of the
// classes of D(j)'s digits (digit k has dims[k] of them, see digitClasses),
// first digit fastest, and classOf[k] maps a configuration of digit k to its
// class (nil where every configuration is its own). The entry of φ is the
// entry of φ's classes: every reader indexes through classOf, and no Π K copy
// is ever made.
//
// Digits are the members of D(j) by ascending position. At the one position i
// that folds the subset C whose last vertex is v(j), v(i) is digit 0. C is a
// component of X(i) − {v(i)} and as such maximal, so the first vertex off C on
// a path from C to v(i) inside V≤i is v(i) itself; X(j) = C; hence v(i) is a
// later neighbour of X(j), i.e. v(i) ∈ D(j). Every other member of D(j) is a
// neighbour of C outside X(i), so it lies in D(i), after i. The scan over
// v(i)'s own configurations therefore reads one CONTIGUOUS row of v(j)'s
// table, gathered through classOf[0] — a flat strided kernel instead of a
// gather over cache-hostile K²-sized strides — and no subset is a φ-only
// constant to add outside the scan.
type qtable struct {
	cost    []float64 // nil once freed: back-substitution reads choices only
	choice  []int32
	classOf [][]int32
	dims    []int
}

// k is the configuration count of digit d.
func (q *qtable) k(d int) int {
	if q.classOf[d] != nil {
		return len(q.classOf[d])
	}
	return q.dims[d]
}

// Snapshot retains a completed solve's full DP state — every position's
// quotient table — so a near-duplicate later request can re-fill only the
// tables its delta touches (Resolve). tbl is indexed by position; the
// positions of one table class (see tableClasses) hold the same table, so the
// retained memory is one quotient per class: Π classes entries each, not the
// solve's TotalEntries. It is NOT counted against Options.MaxTableEntries,
// which keeps ErrOOM behavior identical to a non-retaining solve. Retained
// tables are immutable once published: a Resolve's new snapshot aliases the
// clean tables of the old one, so snapshots are cheap to chain and safe to
// share.
type Snapshot struct {
	sq      *seq.Sequence
	subsets [][][]int
	tbl     []*qtable
}

// Seq returns the vertex ordering the snapshot's solve ran over.
func (s *Snapshot) Seq() *seq.Sequence { return s.sq }

// posDirty propagates a per-vertex dirty set to DP positions: position i
// must be re-filled when its own vertex changed, any member of D(i) changed
// (the fill reads TL/TX tables and strides keyed by those vertices), or any
// connected subset it folds was itself re-filled (its input table changed).
// The forward pass is well-founded because a position's subset children all
// precede it in the ordering.
func (s *Snapshot) posDirty(dirtyV []bool) []bool {
	sq := s.sq
	n := len(sq.Order)
	dirty := make([]bool, n)
	for i := 0; i < n; i++ {
		d := dirtyV[sq.Order[i]]
		if !d {
			for _, dep := range sq.Dep[i] {
				if dirtyV[dep] {
					d = true
					break
				}
			}
		}
		if !d {
			for _, sub := range s.subsets[i] {
				if dirty[sq.Pos[sub[len(sub)-1]]] {
					d = true
					break
				}
			}
		}
		dirty[i] = d
	}
	return dirty
}

// EstimateDelta sizes a prospective Resolve against model m: the table
// entries the dirty closure of dirtyV would re-fill versus the total — a cheap
// O(Σ|D(i)|) computation, no tables touched. Both sides count positions, not
// table classes: a dirty position that shares its table is re-filled once, or
// not at all, so dirty over-states the work, by the same convention total
// does.
func (s *Snapshot) EstimateDelta(m *cost.Model, dirtyV []bool) (dirty, total int64) {
	pd := s.posDirty(dirtyV)
	for i := range s.sq.Order {
		sz := int64(1)
		for _, d := range s.sq.Dep[i] {
			sz *= int64(m.K(d))
		}
		total += sz
		if pd[i] {
			dirty += sz
		}
	}
	return dirty, total
}

// Solve runs the dependent-set DP over an arbitrary ordering. The ordering's
// dependent sets must be the definitional D(i) (seq.Generate and seq.BFS /
// seq.FromOrder both guarantee this).
//
// Cancellation: the fill polls ctx at coarse granularity — at every vertex
// boundary and every few thousand table entries inside a fill (see
// cancelCheckMask) — so cancelling mid-DP returns ctx's error within
// milliseconds, worker goroutines always drain before Solve returns (no
// leaks), and a Background context costs the hot loop nothing.
func Solve(ctx context.Context, m *cost.Model, sq *seq.Sequence, opts Options) (*Result, error) {
	res, _, err := solveRun(ctx, m, sq, opts, nil, nil, false)
	return res, err
}

// SolveRetain is Solve, additionally retaining every DP table in a Snapshot
// for later incremental re-solves. Results are byte-identical to Solve; the
// price is that one quotient table per table class stays resident (outside
// the MaxTableEntries budget) for as long as the snapshot is held.
func SolveRetain(ctx context.Context, m *cost.Model, sq *seq.Sequence, opts Options) (*Result, *Snapshot, error) {
	return solveRun(ctx, m, sq, opts, nil, nil, true)
}

// Resolve re-solves against model m reusing a prior solve's snapshot:
// positions outside the dirty closure of dirtyV (per-vertex, true where the
// vertex's cost tables changed between the snapshot's model and m) keep
// their snapshot tables verbatim; only the closure is re-filled. The caller
// must guarantee m's graph has the snapshot's topology (same node count and
// edge list — the ordering is then identical) and that dirtyV is sound:
// every vertex whose TL row, configuration list, or incident TX tables
// differ from the snapshot's model must be marked. Under those conditions
// the result is byte-identical to a fresh Solve over m — clean tables would
// be re-filled to the same bytes — and a fresh Snapshot (sharing clean
// tables with the old one) is returned for the next delta.
func Resolve(ctx context.Context, m *cost.Model, snap *Snapshot, dirtyV []bool, opts Options) (*Result, *Snapshot, error) {
	if snap == nil {
		return nil, nil, fmt.Errorf("core: nil snapshot")
	}
	n := m.G.Len()
	if len(snap.sq.Order) != n || len(dirtyV) != n {
		return nil, nil, fmt.Errorf("core: snapshot covers %d vertices, model has %d (dirty set %d)", len(snap.sq.Order), n, len(dirtyV))
	}
	return solveRun(ctx, m, snap.sq, opts, snap, snap.posDirty(dirtyV), true)
}

// newStats starts a solve's Stats with what the model and the ordering fix
// before any table is filled.
func newStats(m *cost.Model, sq *seq.Sequence) Stats {
	return Stats{
		MaxDepSize:       sq.MaxDepSize(),
		KEffective:       m.MaxK(),
		VertexClasses:    m.VertexClasses(),
		EdgeClasses:      m.EdgeClasses(),
		TableBytes:       m.TableBytes(),
		SharedTableBytes: m.SharedTableBytes(),
	}
}

// txRows returns the TX table of incidence entry ie of vertex v in the
// orientation that makes a scan over v's own configuration contiguous: rows of
// K(v) costs, one row per configuration of the other endpoint.
func txRows(m *cost.Model, ie cost.IncEdge) []float64 {
	if ie.VIsU {
		vals, _ := m.EdgeTableT(ie.E) // [cv*Ku+cu], contiguous in c=cu
		return vals
	}
	vals, _ := m.EdgeTable(ie.E) // [cu*Kv+cv], contiguous in c=cv
	return vals
}

// tableClasses groups the positions of the ordering into classes whose DP
// tables are equal by construction: rep[i] is the first position whose table
// is computed from the same inputs, wired the same way, as position i's
// (rep[i] == i for a representative). A table of recurrence (4) is a function
// of its vertex's TL row, the configuration count of every φ digit, the TX
// table of every later neighbour and the digit that addresses it, and the
// tables of its connected subsets with the map from each child's dependent
// set to "the vertex itself" or a φ digit, TX tables and subsets in summation
// order. The key spells out exactly that, and two positions fall into one
// class only when their keys are the same bytes (the map compares them), so
// the fill, its digit classes, its candidate counts and every bit of the table
// are those of the representative's.
//
// TL rows and TX tables are named by identity — first cell; the length
// follows from the configuration counts in the key — which is what interning
// gives repeated layers in common. A model built without interning has no two
// tables in common, so every position is its own class. A child is named by
// its class, an index: this pass fixes the classes before any table exists,
// so there is no table address to name it by. The pass reads the model, the
// ordering and the subsets only, no table data.
func tableClasses(m *cost.Model, sq *seq.Sequence, subsets [][][]int) []int {
	n := len(sq.Order)
	rep := make([]int, n)
	tables := make(map[*float64]int64)
	var key []byte
	put := func(x int64) { key = binary.AppendVarint(key, x) }
	putTable := func(vals []float64) {
		id, ok := tables[&vals[0]]
		if !ok {
			id = int64(len(tables))
			tables[&vals[0]] = id
		}
		put(id)
	}
	digitOf := make([]int, n) // node → φ digit of the current position; 0 = absent
	seen := make(map[string]int, n)
	for i, v := range sq.Order {
		key = key[:0]
		putTable(m.TLRow(v))
		put(int64(m.K(v)))
		put(int64(len(sq.Dep[i])))
		for k, d := range sq.Dep[i] {
			put(int64(m.K(d)))
			digitOf[d] = k + 1
		}
		for _, ie := range m.Incidence(v) {
			if sq.Pos[ie.Other] <= i {
				continue
			}
			putTable(txRows(m, ie))
			put(int64(digitOf[ie.Other]))
		}
		put(-1) // no table has this id: the TX sources end here
		for _, sub := range subsets[i] {
			j := sq.Pos[sub[len(sub)-1]]
			put(int64(rep[j])) // D(j)'s size is part of the child's own key
			for _, d := range sq.Dep[j] {
				if d == v {
					put(-1)
				} else {
					put(int64(digitOf[d]))
				}
			}
		}
		for _, d := range sq.Dep[i] {
			digitOf[d] = 0
		}
		r, ok := seen[string(key)]
		if !ok {
			r = i
			seen[string(key)] = i
		}
		rep[i] = r
	}
	return rep
}

// freePlan is the liveness plan the exact and the beam solver share:
// freeAt[i] lists the positions whose cost table is last read by position i's
// fill. After that fill the table is dead — back-substitution reads choices
// only — and is freed. With table classes (rep non-nil; the beam has none) a
// table belongs to its class and is listed under the representative: only a
// representative is filled, so only a representative reads, and a child is
// read through whichever member of its class the reader's subset names — the
// table dies after the last such fill.
func freePlan(sq *seq.Sequence, subsets [][][]int, rep []int) [][]int {
	lastReader := make([]int, len(subsets))
	for j := range lastReader {
		lastReader[j] = -1
	}
	for i, subs := range subsets {
		if rep != nil && rep[i] != i {
			continue
		}
		for _, sub := range subs {
			j := sq.Pos[sub[len(sub)-1]]
			if rep != nil {
				j = rep[j]
			}
			if i > lastReader[j] {
				lastReader[j] = i
			}
		}
	}
	freeAt := make([][]int, len(subsets))
	for j, r := range lastReader {
		if r >= 0 {
			freeAt[r] = append(freeAt[r], j)
		}
	}
	return freeAt
}

// solveRun is the shared DP engine behind Solve, SolveRetain, and Resolve:
// a full fill when posDirty is nil, a partial re-fill over the dirty
// positions otherwise (clean positions alias snap's tables). In every mode
// one table is filled per table class (see tableClasses) and the other
// positions of the class are that table. retain keeps every table and returns
// them as a Snapshot. Budget accounting is identical in all modes — a class is
// charged once, and clean positions are charged and retired exactly as if they
// had been filled — so ErrOOM semantics never depend on the mode.
func solveRun(ctx context.Context, m *cost.Model, sq *seq.Sequence, opts Options, snap *Snapshot, posDirty []bool, retain bool) (*Result, *Snapshot, error) {
	g := m.G
	n := g.Len()
	if n == 0 {
		return nil, nil, fmt.Errorf("core: empty graph")
	}
	if len(sq.Order) != n {
		return nil, nil, fmt.Errorf("core: ordering covers %d of %d vertices", len(sq.Order), n)
	}

	budget := opts.maxEntries()
	nw := opts.workers()
	// Cancellation state shared by all fill goroutines: the first poll that
	// observes ctx.Done() sets the flag, later polls exit on the cheaper
	// atomic load, and the vertex loop converts it into ctx's error.
	done := ctx.Done()
	var cancelled atomic.Bool
	cancelErr := func() error {
		return fmt.Errorf("core: solve cancelled: %w", context.Cause(ctx))
	}
	// stopped is the poll the fill loops make every cancelCheckMask+1 entries.
	stopped := func() bool {
		if done == nil {
			return false
		}
		if cancelled.Load() {
			return true
		}
		select {
		case <-done:
			cancelled.Store(true)
			return true
		default:
			return false
		}
	}
	st := newStats(m, sq)

	// The fill pool lives for the whole solve: every vertex's chunked table
	// fill dispatches to the same nw−1 helpers (the calling goroutine is the
	// nw-th worker).
	var pool *fillPool
	if nw > 1 {
		pool = newFillPool(nw - 1)
		defer pool.close()
	}

	// All connected subsets up front (one bitset pass): the recurrence lookup
	// wiring, the table classes and the liveness plan (freePlan) need them. A
	// Resolve reuses the snapshot's subsets — same graph topology, same
	// ordering — but not its classes: those are the new model's.
	var subsets [][][]int
	if snap != nil {
		subsets = snap.subsets
	} else {
		subsets = seq.ConnectedSubsetsAll(g, sq)
	}
	rep := tableClasses(m, sq, subsets)
	freeAt := freePlan(sq, subsets, rep)

	// Tables live in their representative's slot and are read through rep; the
	// other slots stay nil until the snapshot is assembled. A table's costs are
	// freed at the class's last reader; its choices stay for back-substitution.
	tbl := make([]*qtable, n)

	// Live-memory accounting in 4-byte units: a float64 cost cell is 2
	// units, an int32 choice cell 1, so a full entry is 3. Freeing a cost
	// table returns its 2 units per entry while the choice third stays live.
	// The budget bounds the peak, not the total ever allocated — graphs
	// whose tables die young fit in budgets their TotalEntries would blow. A
	// table is charged its nominal Π K entries, not the Π classes it stores:
	// which requests end in ErrOOM, and so which the planner degrades to the
	// beam, is part of the served answer and does not move with the layout.
	budgetUnits := 3 * budget

	// Sizing pre-pass: table sizes, classes and the liveness plan need no
	// fill, so a solve whose tables alone outgrow the budget fails here,
	// before the first table is allocated, instead of seconds into the fills.
	// The fill loop below repeats this accounting with the per-vertex scratch
	// charged on top — the row minima, which a solve that passes here can
	// still run out on, never the other way round.
	tblSizes := make([]int64, n)
	planned := int64(0)
	for i, v := range sq.Order {
		size := int64(1)
		for _, d := range sq.Dep[i] {
			if size *= int64(m.K(d)); size > budget {
				return nil, nil, fmt.Errorf("%w: table for vertex %d needs >%d entries", ErrOOM, v, budget)
			}
		}
		tblSizes[i] = size
		if rep[i] != i {
			continue
		}
		if planned += 3 * size; planned > budgetUnits {
			return nil, nil, fmt.Errorf("%w: live tables at vertex %d exceed %d entries", ErrOOM, v, budget)
		}
		for _, j := range freeAt[i] {
			planned -= 2 * tblSizes[j]
		}
	}

	liveUnits := int64(0)
	// charge takes units of live memory for vertex v's fill and records the
	// peak; where they would exceed the budget it takes nothing and fails.
	charge := func(units int64, v int) error {
		if liveUnits+units > budgetUnits {
			return fmt.Errorf("%w: live tables at vertex %d exceed %d entries", ErrOOM, v, budget)
		}
		liveUnits += units
		if live := (liveUnits + 2) / 3; live > st.PeakLiveEntries {
			st.PeakLiveEntries = live
		}
		return nil
	}

	// parChunk splits a fill's flat index range into contiguous fixed-size
	// chunks claimed off an atomic counter by the pool's helpers plus the
	// calling goroutine. Chunks write disjoint output ranges, so which worker
	// runs which chunk is irrelevant to the bytes produced — results stay
	// byte-identical at every worker count — while the dynamic claiming keeps
	// all cores busy even when one chunk's scan is slower than another's.
	parChunk := func(total int64, f func(lo, hi int64)) {
		if nw <= 1 || total < parallelThreshold {
			f(0, total)
			return
		}
		chunk := fillChunkSize(total, nw)
		var next atomic.Int64
		run := func() {
			for {
				lo := (next.Add(1) - 1) * chunk
				if lo >= total {
					return
				}
				hi := lo + chunk
				if hi > total {
					hi = total
				}
				f(lo, hi)
			}
		}
		helpers := nw - 1
		if nc := (total + chunk - 1) / chunk; int64(helpers) > nc-1 {
			helpers = int(nc - 1)
		}
		var wg sync.WaitGroup
		wg.Add(helpers)
		for w := 0; w < helpers; w++ {
			pool.jobs <- func() {
				defer wg.Done()
				run()
			}
		}
		run()
		wg.Wait()
	}

	digitOf := make([]int, n) // dense node-ID → φ-digit map; -1 = absent
	for j := range digitOf {
		digitOf[j] = -1
	}
	var kd []int

	for i := 0; i < n; i++ {
		if done != nil && ctx.Err() != nil {
			return nil, nil, cancelErr()
		}
		v := sq.Order[i]
		dep := sq.Dep[i] // node IDs sorted by position, all after i
		tblSize := tblSizes[i]
		// A position that is not its class's representative is the
		// representative's table — filled earlier in this run, or kept clean
		// from the snapshot, and in both cases the bytes a fill of this
		// position over m would produce. It is not filled, charged or freed.
		if rep[i] != i {
			st.SharedPositions++
			st.SharedEntries += tblSize
			continue
		}
		kd = kd[:0]
		for k, d := range dep {
			kd = append(kd, m.K(d))
			digitOf[d] = k
		}
		st.TotalEntries += tblSize
		if tblSize > st.MaxTable {
			st.MaxTable = tblSize
		}
		if err := charge(3*tblSize, v); err != nil {
			return nil, nil, err
		}

		// Incremental re-solve: a position outside the dirty closure keeps
		// its snapshot table verbatim — its fill would reproduce the same
		// bytes (unchanged TL/TX inputs, unchanged child tables) and so the
		// same classes. It is charged and retired through the budget exactly
		// like a filled table, so ErrOOM behavior matches the full solve.
		if posDirty != nil && !posDirty[i] {
			old := snap.tbl[i]
			sameShape := len(old.dims) == len(kd)
			for k := 0; sameShape && k < len(kd); k++ {
				sameShape = old.k(k) == kd[k]
			}
			if !sameShape {
				return nil, nil, fmt.Errorf("core: resolve: clean position %d table is not of the shape the model implies (unsound dirty set?)", i)
			}
			tbl[i] = old
			st.ReusedEntries += tblSize
			for _, j := range freeAt[i] {
				liveUnits -= 2 * tblSizes[j]
			}
			for _, d := range dep {
				digitOf[d] = -1
			}
			continue
		}
		if posDirty != nil {
			st.DirtyPositions++
		}

		// The input rows of the scan, in summation order: the TX row of every
		// incident edge to a later vertex (those endpoints are all in D(i);
		// costs come straight from the model's eager TX tables, in whichever
		// orientation makes the scan over v's own configuration contiguous),
		// then the table row of every connected subset of S(i), whose digit 0
		// is v (see qtable) and whose other digits are φ digits, read through
		// the child's classes. Nothing here mutates shared state, so the
		// parallel fill below reads the sources freely.
		kv := m.K(v)
		tlv := m.TLRow(v)
		var srcs []rowSrc
		for _, ie := range m.Incidence(v) {
			if sq.Pos[ie.Other] <= i { // earlier neighbours and self-loops
				continue
			}
			dg := digitOf[ie.Other]
			if dg < 0 {
				return nil, nil, fmt.Errorf("core: later neighbour %d of %d missing from D(%d)", ie.Other, v, i)
			}
			srcs = append(srcs, rowSrc{vals: txRows(m, ie), w: kv, digit: []int{dg}, dim: []int{kd[dg]}, cls: [][]int32{nil}})
		}
		for _, sub := range subsets[i] {
			jPos := sq.Pos[sub[len(sub)-1]]
			dj := sq.Dep[jPos]
			if len(dj) == 0 || dj[0] != v {
				return nil, nil, fmt.Errorf("core: v(%d) is not the first member of D(%d): ordering's dependent sets are inconsistent", i, jPos)
			}
			q := tbl[rep[jPos]]
			rs := rowSrc{vals: q.cost, w: q.dims[0], col: q.classOf[0], dim: q.dims[1:], cls: q.classOf[1:]}
			for _, d := range dj[1:] {
				if digitOf[d] < 0 {
					return nil, nil, fmt.Errorf("core: D(%d) member %d not in D(%d) ∪ {v(%d)}: ordering's dependent sets are inconsistent", jPos, d, i, i)
				}
				rs.digit = append(rs.digit, digitOf[d])
			}
			srcs = append(srcs, rs)
		}

		// rowDig lists, per φ digit, which row indices that digit moves and by
		// what stride — the odometer then updates only what a digit change
		// actually touches, instead of refolding and reslicing every row per
		// entry.
		rowDig := make([][]digUpd, len(dep))
		for s := range srcs {
			stride := int64(1)
			for j, dg := range srcs[s].digit {
				rowDig[dg] = append(rowDig[dg], digUpd{s, stride, srcs[s].cls[j]})
				stride *= int64(srcs[s].dim[j])
			}
		}

		// Quotient: the scan reads φ through its rows only, so two φ that
		// select the same bits in every row share one scan. Each digit's values
		// fall into classes the rows cannot tell apart (digitClasses); a digit
		// no row reads, or with one configuration, has a single class. The
		// table is one scan per combination of class representatives — subSize
		// of them — and is stored that way (see qtable).
		classOf, reps := digitClasses(srcs, kd, parChunk, stopped)
		if cancelled.Load() {
			return nil, nil, cancelErr()
		}
		q := &qtable{classOf: classOf, dims: make([]int, len(dep))}
		subSize := int64(1)
		fastDigit := len(dep) // first digit with rows and K > 1; len(dep) when there is none
		var scanDigits []int  // digits the scan odometer steps, fastest first
		for k := range dep {
			q.dims[k] = len(reps[k])
			subSize *= int64(len(reps[k]))
			if fastDigit == len(dep) && len(rowDig[k]) > 0 && kd[k] > 1 {
				fastDigit = k
			}
			if len(reps[k]) > 1 {
				scanDigits = append(scanDigits, k)
			}
		}

		// Bound-pruned scan wiring. Fast rows are the ones fastDigit moves;
		// every other row is constant between two steps of a slower digit and
		// is hoisted, with the layer cost row, into the chunk's base vector (see
		// fillScan). The split is by digit, not by class count: a fastDigit
		// whose values all fall in one class never steps, but its rows are
		// still summed last, so every table keeps the bits the unquotiented scan
		// gives it.
		var fastRows, slowRows []int
		for s := range srcs {
			if slices.Contains(srcs[s].digit, fastDigit) {
				fastRows = append(fastRows, s)
			} else {
				slowRows = append(slowRows, s)
			}
		}
		// A fast row's contribution is bounded below by its row minimum, built
		// here once per vertex — one pass over the source table as stored — and
		// charged against the budget at that length.
		minUnits := int64(0)
		for _, s := range fastRows {
			minUnits += 2 * int64(len(srcs[s].vals)/srcs[s].w)
		}
		if err := charge(minUnits, v); err != nil {
			return nil, nil, err
		}
		for _, s := range fastRows {
			src := &srcs[s]
			w := int64(src.w)
			src.mins = make([]float64, int64(len(src.vals))/w)
			parChunk(int64(len(src.mins)), func(lo, hi int64) {
				for r := lo; r < hi; r++ {
					src.mins[r] = slices.Min(src.vals[r*w : (r+1)*w])
				}
			})
		}

		q.cost, q.choice = make([]float64, subSize), make([]int32, subSize)

		// fillScan computes min_C over the flat range [lo, hi) of the table —
		// the scan odometer over the representatives of every digit, first
		// digit fastest — by branch and bound. A candidate's cost is summed as
		// ((tl + slow rows in row order) + fast rows in row order); the
		// parenthesised base is rebuilt, and sorted ascending with ties by
		// configuration index, only when a digit slower than fastDigit steps.
		// Each entry walks the sorted base and stops at the first candidate
		// whose base plus the fast rows' minima (added in the same order)
		// already exceeds the best cost so far: floating-point addition is
		// monotone, so that bound never exceeds the candidate's true cost nor
		// the bound of any candidate after it. The stop test is strict and
		// equal costs keep the smaller index, so value and argmin are exactly
		// those of a linear scan over the same expression. Ranges are disjoint,
		// all shared state is read-only and an entry's work depends on table
		// data alone, so chunks run in parallel with byte-identical tables and
		// state counts at any worker count and chunk size.
		var scanned atomic.Int64
		fillScan := func(lo, hi int64) {
			// A chunk claimed after cancellation returns before paying the
			// odometer positioning.
			if done != nil && cancelled.Load() {
				return
			}
			sc := getFillScratch(len(dep), len(srcs), kv, len(fastRows))
			defer sc.release()
			// digits holds each digit's position in its reps list.
			digits, ridx, ents, fmin := sc.digits, sc.ridx, sc.ents, sc.fmin
			row := func(s int) []float64 {
				o := ridx[s] * int64(srcs[s].w)
				return srcs[s].vals[o : o+int64(srcs[s].w)]
			}
			rebase := func() {
				for c := range ents {
					ents[c] = baseEnt{tlv[c], int32(c)}
				}
				for _, s := range slowRows {
					if f, col := row(s), srcs[s].col; col == nil {
						for c, x := range f {
							ents[c].b += x
						}
					} else {
						for c, cc := range col {
							ents[c].b += f[cc]
						}
					}
				}
				sortEnts(ents, sc.tmp)
			}
			// Position the incremental state at flat index lo of the scan
			// odometer.
			rem := lo
			clear(ridx)
			for _, k := range scanDigits {
				n := int64(len(reps[k]))
				digits[k] = int(rem % n)
				rem /= n
				for _, u := range rowDig[k] {
					ridx[u.i] += int64(classIn(u.cls, reps[k][digits[k]])) * u.stride
				}
			}
			rebase()
			evaluated := int64(0)
			defer func() { scanned.Add(evaluated) }()
			for flat := lo; flat < hi; flat++ {
				if flat&cancelCheckMask == 0 && stopped() {
					return
				}
				best := math.Inf(1)
				bestC := int32(0)
				n := 0
				if len(fastRows) == 1 { // the common shape, unrolled
					s := fastRows[0]
					f, col, lb := row(s), srcs[s].col, srcs[s].mins[ridx[s]]
					for ; n < len(ents); n++ {
						e := ents[n]
						if e.b+lb > best {
							break
						}
						cc := e.c
						if col != nil {
							cc = col[cc]
						}
						if cst := e.b + f[cc]; cst < best || cst == best && e.c < bestC {
							best, bestC = cst, e.c
						}
					}
				} else {
					for j, s := range fastRows {
						fmin[j] = srcs[s].mins[ridx[s]]
					}
					for ; n < len(ents); n++ {
						e := ents[n]
						bound := e.b
						for _, lb := range fmin {
							bound += lb
						}
						if bound > best {
							break
						}
						cst := e.b
						for _, s := range fastRows {
							cst += row(s)[classIn(srcs[s].col, int(e.c))]
						}
						if cst < best || cst == best && e.c < bestC {
							best, bestC = cst, e.c
						}
					}
				}
				evaluated += int64(n)
				q.cost[flat] = best
				q.choice[flat] = bestC

				// Odometer increment: the stepping digit moves to its next
				// representative, the wrapped ones back to value 0 (class 0 of
				// every row), updating only the rows those digits stride through.
				slowStep := false
				for _, k := range scanDigits {
					r := reps[k]
					at := digits[k]
					if at+1 < len(r) {
						digits[k] = at + 1
						for _, u := range rowDig[k] {
							ridx[u.i] += int64(classIn(u.cls, r[at+1])-classIn(u.cls, r[at])) * u.stride
						}
						slowStep = k > fastDigit
						break
					}
					digits[k] = 0
					for _, u := range rowDig[k] {
						ridx[u.i] -= int64(classIn(u.cls, r[at])) * u.stride
					}
				}
				if slowStep {
					rebase()
				}
			}
		}
		parChunk(subSize, fillScan)
		st.States += scanned.Load()
		st.ScanSpace += subSize * int64(kv)
		liveUnits -= minUnits // the row minima die with the fill
		// A cancelled fill returned early with a partial table; parChunk has
		// already drained its goroutines, so this is the clean exit point.
		if cancelled.Load() {
			return nil, nil, cancelErr()
		}
		tbl[i] = q

		// Retire cost tables whose last reader was this position — dropping
		// them for the collector (a retaining solve only does the accounting:
		// every table lives on in the snapshot) — and reset the dense digit
		// map for the next vertex.
		for _, j := range freeAt[i] {
			liveUnits -= 2 * tblSizes[j]
			if !retain {
				tbl[j].cost = nil
			}
		}
		for _, d := range dep {
			digitOf[d] = -1
		}
	}

	// Extract the strategy by back-substitution from v(|V|) with φ = ∅.
	idx := make([]int, n)
	assigned := make([]bool, n)
	var walk func(pos int) error
	walk = func(pos int) error {
		v := sq.Order[pos]
		dj := sq.Dep[pos]
		q := tbl[rep[pos]]
		flat, stride := 0, 1
		for k, d := range dj { // the entry of φ is the entry of φ's classes
			if !assigned[d] {
				return fmt.Errorf("core: back-substitution reached %d before its dependent %d", v, d)
			}
			flat += classIn(q.classOf[k], idx[d]) * stride
			stride *= q.dims[k]
		}
		idx[v] = int(q.choice[flat])
		assigned[v] = true
		for _, sub := range subsets[pos] {
			if err := walk(sq.Pos[sub[len(sub)-1]]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(n - 1); err != nil {
		return nil, nil, err
	}
	for v := 0; v < n; v++ {
		if !assigned[v] {
			return nil, nil, fmt.Errorf("core: back-substitution left node %d unassigned (graph not weakly connected?)", v)
		}
	}

	// The last position reads nothing after it and nothing reads its table, so
	// its class's cost table — one cell, R_V(|V|, ∅) — is never freed.
	res := &Result{
		Cost:     tbl[rep[n-1]].cost[0],
		Idx:      idx,
		Strategy: m.StrategyFromIdx(idx),
		Seq:      sq,
		Stats:    st,
	}
	// Theorem 1 consistency: the extracted strategy must realize the DP
	// minimum. Guard against wiring bugs rather than silently returning an
	// inconsistent pair.
	if ev := m.EvalIdx(idx); math.Abs(ev-res.Cost) > 1e-6*math.Max(1, math.Abs(ev)) {
		return nil, nil, fmt.Errorf("core: extracted strategy costs %v but DP minimum is %v", ev, res.Cost)
	}
	if !retain {
		return res, nil, nil
	}
	for i, r := range rep {
		tbl[i] = tbl[r]
	}
	return res, &Snapshot{sq: sq, subsets: subsets, tbl: tbl}, nil
}

// BruteForce exhaustively enumerates every strategy. It is exponential and
// intended only for validating the DP on small graphs.
func BruteForce(m *cost.Model) (*Result, error) {
	n := m.G.Len()
	if n == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	total := int64(1)
	for v := 0; v < n; v++ {
		total *= int64(m.K(v))
		if total > 200_000_000 {
			return nil, fmt.Errorf("core: brute force space too large")
		}
	}
	idx := make([]int, n)
	best := math.Inf(1)
	bestIdx := make([]int, n)
	for it := int64(0); it < total; it++ {
		if c := m.EvalIdx(idx); c < best {
			best = c
			copy(bestIdx, idx)
		}
		for k := n - 1; k >= 0; k-- {
			idx[k]++
			if idx[k] < m.K(k) {
				break
			}
			idx[k] = 0
		}
	}
	return &Result{
		Cost:     best,
		Idx:      bestIdx,
		Strategy: m.StrategyFromIdx(bestIdx),
		Stats:    Stats{States: total},
	}, nil
}
