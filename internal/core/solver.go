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
	"errors"
	"fmt"
	"runtime"
	"time"

	"pase/internal/canon"
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
	res, _, err := solveExact(ctx, m, sq, opts, nil, false)
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
	return solveExact(ctx, m, sq, opts, nil, true)
}

// Resolve re-solves against model m reusing a prior solve's snapshot: every
// table whose key (see tableClasses) the snapshot holds is kept verbatim, and
// only the rest are filled, so the result, and the snapshot it returns, are
// byte-identical to a fresh SolveRetain over m and the snapshot's ordering,
// whatever changed between the two models — a configuration count included.
// The caller must guarantee that the ordering is m's: m's graph has the
// snapshot's topology (same node count and edge list). A model without class
// fingerprints keeps nothing. dirtyV is ignored: the keys decide what is
// filled. The new snapshot shares the kept tables with the old one.
func Resolve(ctx context.Context, m *cost.Model, snap *Snapshot, dirtyV []bool, opts Options) (*Result, *Snapshot, error) {
	if snap == nil {
		return nil, nil, fmt.Errorf("core: nil snapshot")
	}
	if n := m.G.Len(); len(snap.sq.Order) != n {
		return nil, nil, fmt.Errorf("core: snapshot covers %d vertices, model has %d", len(snap.sq.Order), n)
	}
	return solveExact(ctx, m, snap.sq, opts, snap, true)
}

// exactSolve is one exact solve on its frame: the plan, the tables, and the
// fill's worker pool with one scratch per worker. A Resolve (snap set) keeps
// the tables held lists under their keys; retain keeps every table for a
// Snapshot. Tables live in their representative's slot and are read through
// rep; the other slots stay nil until the snapshot is assembled.
type exactSolve struct {
	*frame
	nw       int
	pool     *fillPool
	scratch  []fillScratch
	rep      []int
	keys     []canon.Fingerprint
	freeAt   [][]int
	tblSizes []int64
	tbl      []*qtable
	snap     *Snapshot
	held     map[canon.Fingerprint]*qtable
	retain   bool
}

// solveExact is the exact kernel behind Solve, SolveRetain and Resolve, in
// stages: plan, fill every position, back-substitute, then the result and,
// when retaining, the snapshot. In every mode one table is filled per table
// class (see tableClasses), and a class is charged and retired once, filled
// or kept clean, so ErrOOM never depends on the mode.
func solveExact(ctx context.Context, m *cost.Model, sq *seq.Sequence, opts Options, snap *Snapshot, retain bool) (*Result, *Snapshot, error) {
	if err := checkInput(m, sq); err != nil {
		return nil, nil, err
	}
	// All connected subsets up front (one bitset pass): the recurrence lookup
	// wiring, the table classes and the liveness plan need them. A Resolve
	// reuses the snapshot's subsets — same graph topology, same ordering — but
	// not its classes: those are the new model's.
	var subsets [][][]int
	var held map[canon.Fingerprint]*qtable
	if snap != nil {
		subsets, held = snap.subsets, snap.held(m)
	} else {
		subsets = seq.ConnectedSubsetsAll(m.G, sq)
	}
	e := &exactSolve{frame: newFrame(ctx, m, sq, subsets, opts, ""), nw: opts.workers(), snap: snap, held: held, retain: retain}
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
	out := &Snapshot{sq: sq, subsets: subsets, tbl: e.tbl}
	if named(m) {
		out.keys = e.keys
	}
	return res, out, nil
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
