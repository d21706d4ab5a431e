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
	"time"

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
// fresh solves. v2 sums each candidate as ((tl + slow rows) + fast rows),
// which moved 15 of 179 golden costs of v1 by one ulp.
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
// the per-chunk odometer positioning and base rebuild stay amortized to noise.
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
	w     int     // row width: the classes of the scanned vertex's configurations
	col   []int32 // configuration → column of the row; nil when it is the column
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

// fillScratch is one worker's odometer state — digit vector, row indices, the
// base vector and the fast rows' sum — held by the solve, one per worker, and
// grown per fill, so the many chunks of a big fill don't each allocate four
// slices. It holds indices and its own buffers only: the current rows are
// re-sliced from their source tables where they are read, so a scratch never
// pins a freed table, and the scan's inner loops store no pointer into the
// heap. A chunk fully initializes what it reads (digits are zeroed
// explicitly: scans only position a subset of them).
type fillScratch struct {
	digits []int
	ridx   []int64
	base   []float64
	sum    []float64
}

// grown is s resliced to n elements, or a new slice where s is too short.
// A new slice's capacity is a multiple of 8 elements, so that the buffers of
// two fill workers — 8-byte elements, allocated one after the other — never
// share a cache line.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, (n+7)&^7)
	}
	return s[:n]
}

func (sc *fillScratch) grow(ndep, nrows, kv int) {
	sc.digits = grown(sc.digits, ndep)
	sc.ridx = grown(sc.ridx, nrows)
	sc.base = grown(sc.base, kv)
	sc.sum = grown(sc.sum, kv)
}

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
	// bounds. The sizing pre-pass computes it before any table is filled, so a
	// solve succeeds exactly when the budget is at least this.
	PeakLiveEntries int64
	// States is the number of table-cell evaluations the fills performed, one
	// fill per table class: every (φ, C) candidate of the scans, Π classes · kv
	// per fill, one scan per combination of digit classes (see digitClasses).
	// It depends on table data alone, so it repeats exactly at every worker
	// count, under every budget that admits the solve, and whether or not the
	// tables are retained. A beam pass counts the same
	// thing for its sparse join: the (child entry or digit value, partial)
	// candidates its generation steps evaluated before the frontier's
	// threshold stopped them, compatible or not, summed over the passes of a
	// SolveBeam.
	States int64
	// PrunedConfigs is always 0; it stays because benchmark/cold.go sums it.
	PrunedConfigs int
	// ModelInfo is the solved model's: its K, the largest per-vertex
	// configuration count the run iterated over, and its table sharing.
	cost.ModelInfo
	// Incremental re-solve accounting (Resolve only): DirtyPositions is how
	// many DP tables were actually re-filled, ReusedEntries how many entries
	// of distinct tables were served unchanged from the snapshot. States above
	// counts only the re-filled work, so States/ (a full solve's States) is
	// the delta's cost fraction.
	DirtyPositions int
	ReusedEntries  int64
	// Stages is where the run's wall time went. Unlike every count above it
	// varies from run to run, so compare Stats with Stages zeroed.
	Stages StageTimes
}

// StageTimes is a run's wall time by kernel stage, stamped once per table or
// position, never per entry. The exact DP fills Plan (table classes,
// liveness and the sizing pre-pass), Fill (each table's wiring and digit
// classes), Scan (the linear argmin scans) and BackSub. A
// beam run fills Plan (subsets, guide, row minima and lower bound), Join and
// Keep (each position's sparse join and cut, summed over passes) and BackSub.
type StageTimes struct {
	Plan    time.Duration `json:"plan_ns"`
	Fill    time.Duration `json:"fill_ns"`
	Scan    time.Duration `json:"scan_ns"`
	Join    time.Duration `json:"join_ns"`
	Keep    time.Duration `json:"keep_ns"`
	BackSub time.Duration `json:"backsub_ns"`
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
	res, _, err := solveExact(ctx, m, sq, opts, nil, nil, false)
	return res, err
}

// Admit runs the exact kernel's sizing pre-pass alone: nil exactly when Solve
// over m and sq under opts' budget will not return ErrOOM, else the ErrOOM the
// plan returns. It fills no table.
func Admit(m *cost.Model, sq *seq.Sequence, opts Options) error {
	if err := checkInput(m, sq); err != nil {
		return err
	}
	e := &exactSolve{frame: newFrame(context.Background(), m, sq, seq.ConnectedSubsetsAll(m.G, sq), opts, "")}
	return e.plan()
}

// SolveRetain is Solve, additionally retaining every DP table in a Snapshot
// for later incremental re-solves. Results are byte-identical to Solve; the
// price is that one quotient table per table class stays resident (outside
// the MaxTableEntries budget) for as long as the snapshot is held.
func SolveRetain(ctx context.Context, m *cost.Model, sq *seq.Sequence, opts Options) (*Result, *Snapshot, error) {
	return solveExact(ctx, m, sq, opts, nil, nil, true)
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
	return solveExact(ctx, m, snap.sq, opts, snap, snap.posDirty(dirtyV), true)
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
// set to φ digits (after the vertex itself), TX tables and subsets in summation
// order. The key spells out exactly that, and two positions fall into one
// class only when their keys are the same bytes (the map compares them), so
// the fill, its digit classes, its candidate counts and every bit of the table
// are those of the representative's.
//
// TL rows and TX tables are named by identity — first cell; the length
// follows from the configuration counts in the key — which is what interning
// gives repeated layers in common, a TX table also by the side the vertex
// reads it from, which fixes its orientation. A model built without
// interning has no two tables in common, so every position is its own class. A child is named by
// its class, an index: this pass fixes the classes before any table exists,
// so there is no table address to name it by. The pass reads the model, the
// ordering and the subsets only, no table data, and wires them as the fill
// does (eachLaterEdge, childDigits).
func (f *frame) tableClasses() ([]int, error) {
	m, sq := f.m, f.sq
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
	var digits []int
	seen := make(map[string]int, n)
	for i, v := range sq.Order {
		key = key[:0]
		putTable(m.TLRow(v))
		put(int64(m.K(v)))
		put(int64(len(sq.Dep[i])))
		f.setDigits(i)
		for _, k := range f.kd {
			put(int64(k))
		}
		err := f.eachLaterEdge(i, func(ie cost.IncEdge, dg int) {
			// The stored table and the side the fill reads it from name
			// txRows' orientation without building a transpose.
			vals, _ := m.EdgeTable(ie.E)
			putTable(vals)
			if ie.VIsU {
				put(1)
			} else {
				put(0)
			}
			put(int64(dg))
		})
		put(-1) // no table has this id: the TX sources end here
		for _, sub := range f.subsets[i] {
			j := f.child(sub)
			if err == nil {
				digits, err = f.childDigits(i, j, digits)
			}
			put(int64(rep[j])) // D(j)'s size is part of the child's own key
			for _, dg := range digits {
				put(int64(dg))
			}
		}
		f.resetDigits(i)
		if err != nil {
			return nil, err
		}
		r, ok := seen[string(key)]
		if !ok {
			r = i
			seen[string(key)] = i
		}
		rep[i] = r
	}
	return rep, nil
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

// exactSolve is one exact solve on its frame: the plan, the tables, and the
// fill's worker pool with one scratch per worker. A Resolve (snap and
// posDirty set) keeps the snapshot's clean tables; retain keeps every table
// for a Snapshot. Tables live in their representative's slot and are read
// through rep; the other slots stay nil until the snapshot is assembled.
type exactSolve struct {
	*frame
	nw       int
	pool     *fillPool
	scratch  []fillScratch
	rep      []int
	freeAt   [][]int
	tblSizes []int64
	tbl      []*qtable
	snap     *Snapshot
	posDirty []bool
	retain   bool
}

// solveExact is the exact kernel behind Solve, SolveRetain and Resolve, in
// stages: plan, fill every position, back-substitute, then the result and,
// when retaining, the snapshot. In every mode one table is filled per table
// class (see tableClasses), and a class is charged and retired once, filled
// or kept clean, so ErrOOM never depends on the mode.
func solveExact(ctx context.Context, m *cost.Model, sq *seq.Sequence, opts Options, snap *Snapshot, posDirty []bool, retain bool) (*Result, *Snapshot, error) {
	if err := checkInput(m, sq); err != nil {
		return nil, nil, err
	}
	// All connected subsets up front (one bitset pass): the recurrence lookup
	// wiring, the table classes and the liveness plan need them. A Resolve
	// reuses the snapshot's subsets — same graph topology, same ordering — but
	// not its classes: those are the new model's.
	var subsets [][][]int
	if snap != nil {
		subsets = snap.subsets
	} else {
		subsets = seq.ConnectedSubsetsAll(m.G, sq)
	}
	e := &exactSolve{frame: newFrame(ctx, m, sq, subsets, opts, ""), nw: opts.workers(), snap: snap, posDirty: posDirty, retain: retain}
	start := time.Now()
	if err := e.plan(); err != nil {
		return nil, nil, err
	}
	e.st.Stages.Plan = time.Since(start)
	// The fill pool lives for the whole solve: every chunked fill dispatches
	// to the same nw−1 helpers (the calling goroutine is the nw-th worker).
	if e.nw > 1 {
		e.pool = newFillPool(e.nw - 1)
		defer e.pool.close()
	}
	e.scratch = make([]fillScratch, e.nw)
	for i := range sq.Order {
		if err := e.position(i); err != nil {
			return nil, nil, err
		}
	}
	idx, err := e.backSubstitute(e.choiceAt)
	if err != nil {
		return nil, nil, err
	}
	// The last position reads nothing after it and nothing reads its table, so
	// its class's cost table — one cell, R_V(|V|, ∅) — is never freed.
	res, err := e.result(idx, e.tbl[e.rep[len(idx)-1]].cost[0])
	if err != nil || !retain {
		return res, nil, err
	}
	for i, r := range e.rep {
		e.tbl[i] = e.tbl[r]
	}
	return res, &Snapshot{sq: sq, subsets: subsets, tbl: e.tbl}, nil
}

// plan fixes what the fills need before any table exists — the table
// classes, the liveness plan and every table's nominal Π K size — and is the
// sizing pre-pass and the whole budget: it walks the fill loop on the ledger
// — a table is charged 3 units per entry when its representative is filled
// and gives 2 back when its cost table dies — so a solve that outgrows the
// budget fails here, before the first table is allocated, and one that passes
// here never runs out, and its PeakLiveEntries is final. The charge is
// nominal: which requests end in ErrOOM, and so which the planner degrades to
// the beam, is part of the served answer and does not move with the quotient
// layout.
func (e *exactSolve) plan() error {
	m, sq := e.m, e.sq
	n := len(sq.Order)
	var err error
	if e.rep, err = e.tableClasses(); err != nil {
		return err
	}
	e.freeAt = freePlan(sq, e.subsets, e.rep)
	e.tbl = make([]*qtable, n)
	e.tblSizes = make([]int64, n)
	for i, v := range sq.Order {
		size := int64(1)
		for _, d := range sq.Dep[i] {
			if size *= int64(m.K(d)); size > e.budget {
				return fmt.Errorf("%w: table for vertex %d needs >%d entries", ErrOOM, v, e.budget)
			}
		}
		e.tblSizes[i] = size
		if e.rep[i] != i {
			continue
		}
		if err := e.charge(3*size, v); err != nil {
			return err
		}
		for _, j := range e.freeAt[i] {
			e.release(2 * e.tblSizes[j])
		}
	}
	return nil
}

// position is the fill loop's step at position i. A class member is its
// representative's table — the bytes its own fill would produce — and is not
// filled or freed. A representative gets its table and retires the cost
// tables whose last reader it was: dropped for the collector, unless the
// solve retains them for its snapshot. The plan has already charged both.
func (e *exactSolve) position(i int) error {
	if e.stopped() {
		return e.cancelErr()
	}
	size := e.tblSizes[i]
	if e.rep[i] != i {
		e.st.SharedPositions++
		e.st.SharedEntries += size
		return nil
	}
	e.st.TotalEntries += size
	e.st.MaxTable = max(e.st.MaxTable, size)
	q, err := e.table(i)
	if err != nil {
		return err
	}
	e.tbl[i] = q
	if !e.retain {
		for _, j := range e.freeAt[i] {
			e.tbl[j].cost = nil
		}
	}
	return nil
}

// table is representative position i's table: outside a Resolve's dirty
// closure the snapshot's, verbatim — a fill would reproduce its bytes from
// unchanged inputs — and a fresh fill everywhere else.
func (e *exactSolve) table(i int) (*qtable, error) {
	if e.posDirty == nil || e.posDirty[i] {
		if e.posDirty != nil {
			e.st.DirtyPositions++
		}
		return e.fill(i)
	}
	old, dep := e.snap.tbl[i], e.sq.Dep[i]
	sameShape := len(old.dims) == len(dep)
	for k := 0; sameShape && k < len(dep); k++ {
		sameShape = old.k(k) == e.m.K(dep[k])
	}
	if !sameShape {
		return nil, fmt.Errorf("core: resolve: clean position %d table is not of the shape the model implies (unsound dirty set?)", i)
	}
	e.st.ReusedEntries += e.tblSizes[i]
	return old, nil
}

// wire lists the input rows of position i's scan, in summation order: the TX
// row of every incident edge to a later vertex (costs straight from the
// model's eager TX tables, in whichever orientation makes the scan over v's
// own configuration contiguous), then the table row of every connected subset
// of S(i), whose digit 0 is v (see qtable) and whose other digits are φ
// digits, read through the child's classes. Nothing here mutates shared
// state, so the parallel fill reads the sources freely.
func (e *exactSolve) wire(i int) ([]rowSrc, error) {
	kv := e.m.K(e.sq.Order[i])
	var srcs []rowSrc
	err := e.eachLaterEdge(i, func(ie cost.IncEdge, dg int) {
		srcs = append(srcs, rowSrc{vals: txRows(e.m, ie), w: kv, digit: []int{dg}, dim: []int{e.kd[dg]}, cls: [][]int32{nil}})
	})
	if err != nil {
		return nil, err
	}
	for _, sub := range e.subsets[i] {
		jPos := e.child(sub)
		digits, err := e.childDigits(i, jPos, nil)
		if err != nil {
			return nil, err
		}
		q := e.tbl[e.rep[jPos]]
		srcs = append(srcs, rowSrc{vals: q.cost, w: q.dims[0], col: q.classOf[0], digit: digits, dim: q.dims[1:], cls: q.classOf[1:]})
	}
	return srcs, nil
}

// fill computes position i's table: wire its input rows, partition its
// digits into classes the rows cannot tell apart, and scan once per class.
func (e *exactSolve) fill(i int) (*qtable, error) {
	start := time.Now()
	dep := e.sq.Dep[i]
	e.setDigits(i)
	defer e.resetDigits(i)
	srcs, err := e.wire(i)
	if err != nil {
		return nil, err
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
	classOf, reps := digitClasses(srcs, e.kd, e.par, e.stopped)
	if e.cancelled.Load() {
		return nil, e.cancelErr()
	}
	q := &qtable{classOf: classOf, dims: make([]int, len(dep))}
	subSize := int64(1)
	for k := range dep {
		q.dims[k] = len(reps[k])
		subSize *= int64(len(reps[k]))
	}
	q.cost, q.choice = make([]float64, subSize), make([]int32, subSize)
	scanStart := time.Now()
	e.st.Stages.Fill += scanStart.Sub(start)
	e.scan(e.sq.Order[i], q, srcs, rowDig, reps)
	e.st.Stages.Scan += time.Since(scanStart)
	// A cancelled fill returned early with a partial table; parChunk has
	// already drained its goroutines, so this is the clean exit point.
	if e.cancelled.Load() {
		return nil, e.cancelErr()
	}
	return q, nil
}

// scan fills q, the quotient table of vertex v, by a linear argmin over the
// representatives reps of every digit.
func (e *exactSolve) scan(v int, q *qtable, srcs []rowSrc, rowDig [][]digUpd, reps [][]int) {
	tlv := e.m.TLRow(v)
	fastDigit := len(q.dims) // first digit with rows and K > 1; len(q.dims) when there is none
	var scanDigits []int     // digits the scan odometer steps, fastest first
	for k := range q.dims {
		if fastDigit == len(q.dims) && len(rowDig[k]) > 0 && e.kd[k] > 1 {
			fastDigit = k
		}
		if len(reps[k]) > 1 {
			scanDigits = append(scanDigits, k)
		}
	}
	// Fast rows are the ones fastDigit moves; every other row is constant
	// between two steps of a slower digit and is hoisted, with the layer cost
	// row, into the chunk's base vector. The split is by digit, not by class
	// count: a fastDigit whose values all fall in one class never steps, but
	// its rows are still summed last, so every table keeps the bits the
	// unquotiented scan gives it.
	var fastRows, slowRows []int
	for s := range srcs {
		if slices.Contains(srcs[s].digit, fastDigit) {
			fastRows = append(fastRows, s)
		} else {
			slowRows = append(slowRows, s)
		}
	}
	done, cancelled, stopped, scratch := e.done, &e.cancelled, e.stopped, e.scratch
	for w := range scratch {
		scratch[w].grow(len(q.dims), len(srcs), len(tlv))
	}

	// fillScan computes min_C over the flat range [lo, hi) of the table —
	// the scan odometer over the representatives of every digit, first
	// digit fastest — in worker w's scratch. A candidate's cost is summed as
	// ((tl + slow rows in row order) + fast rows in row order); the
	// parenthesised base is rebuilt only when a digit slower than fastDigit
	// steps. Each entry takes the first candidate of least cost in
	// configuration order. Ranges are disjoint and all shared state is
	// read-only, so chunks run in parallel with byte-identical tables at any
	// worker count and chunk size.
	fillScan := func(w int, lo, hi int64) {
		// A chunk claimed after cancellation returns before paying the
		// odometer positioning.
		if done != nil && cancelled.Load() {
			return
		}
		sc := &scratch[w]
		clear(sc.digits)
		// digits holds each digit's position in its reps list.
		digits, ridx, base, sum := sc.digits, sc.ridx, sc.base, sc.sum
		row := func(s int) []float64 {
			o := ridx[s] * int64(srcs[s].w)
			return srcs[s].vals[o : o+int64(srcs[s].w)]
		}
		rebase := func() {
			copy(base, tlv)
			for _, s := range slowRows {
				if f, col := row(s), srcs[s].col; col == nil {
					for c, x := range f {
						base[c] += x
					}
				} else {
					for c, cc := range col {
						base[c] += f[cc]
					}
				}
			}
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
		for flat := lo; flat < hi; flat++ {
			if flat&cancelCheckMask == 0 && stopped() {
				return
			}
			best := math.Inf(1)
			bestC := 0
			if len(fastRows) == 1 { // the common shape, fused
				s := fastRows[0]
				f, col := row(s), srcs[s].col
				if col == nil {
					f = f[:len(base)]
					for c, b := range base {
						if x := b + f[c]; x < best {
							best, bestC = x, c
						}
					}
				} else {
					col = col[:len(base)]
					for c, b := range base {
						if x := b + f[col[c]]; x < best {
							best, bestC = x, c
						}
					}
				}
			} else {
				acc := base
				if len(fastRows) > 0 {
					acc = sum
					copy(acc, base)
					for _, s := range fastRows {
						f, col := row(s), srcs[s].col
						for c := range acc {
							acc[c] += f[classIn(col, c)]
						}
					}
				}
				for c, x := range acc {
					if x < best {
						best, bestC = x, c
					}
				}
			}
			q.cost[flat] = best
			q.choice[flat] = int32(bestC)

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
	e.parChunk(int64(len(q.cost)), fillScan)
	e.st.States += int64(len(q.cost)) * int64(len(tlv))
}

// parChunk splits a fill's flat index range into contiguous fixed-size chunks
// claimed off an atomic counter by the pool's helpers plus the calling
// goroutine, handing each chunk the index of the worker that runs it (the
// caller is worker 0), so a chunk can use that worker's scratch. Chunks write
// disjoint output ranges, so which worker runs which chunk is irrelevant to
// the bytes produced — results stay byte-identical at every worker count —
// while the dynamic claiming keeps all cores busy even when one chunk's scan
// is slower than another's.
func (e *exactSolve) parChunk(total int64, f func(w int, lo, hi int64)) {
	if e.nw <= 1 || total < parallelThreshold {
		f(0, 0, total)
		return
	}
	chunk := fillChunkSize(total, e.nw)
	var next atomic.Int64
	run := func(w int) {
		for {
			lo := (next.Add(1) - 1) * chunk
			if lo >= total {
				return
			}
			f(w, lo, min(lo+chunk, total))
		}
	}
	helpers := min(e.nw-1, int((total+chunk-1)/chunk)-1)
	var wg sync.WaitGroup
	wg.Add(helpers)
	for w := 1; w <= helpers; w++ {
		e.pool.jobs <- func() {
			defer wg.Done()
			run(w)
		}
	}
	run(0)
	wg.Wait()
}

// par is parChunk for a pass that needs no scratch.
func (e *exactSolve) par(total int64, f func(lo, hi int64)) {
	e.parChunk(total, func(_ int, lo, hi int64) { f(lo, hi) })
}

// choiceAt is the choice of position pos's table under the configurations
// idx fixes for D(pos): the entry of φ is the entry of φ's classes.
func (e *exactSolve) choiceAt(pos int, idx []int) (int, error) {
	q := e.tbl[e.rep[pos]]
	flat, stride := 0, 1
	for k, d := range e.sq.Dep[pos] {
		flat += classIn(q.classOf[k], idx[d]) * stride
		stride *= q.dims[k]
	}
	return int(q.choice[flat]), nil
}
