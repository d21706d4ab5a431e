package cost

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pase/internal/canon"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/par"
)

// IncEdge describes one directed edge incident to a node, from that node's
// point of view.
type IncEdge struct {
	// E is the model edge index (into Edges / EdgeCost).
	E int
	// Other is the node ID of the opposite endpoint.
	Other int
	// VIsU is true when the node is the edge's producer.
	VIsU bool
}

// Model binds a computation graph to a machine spec and precomputes every
// layer and edge cost the strategy search needs. The dynamic program, the
// MCMC search, and the exhaustive baselines all evaluate strategies through
// one Model, so they rank candidates under the identical cost function.
//
// All cost tables are built eagerly at NewModel time on GOMAXPROCS workers
// (parallelFor): one vertex class per task, then one distinct TX side and
// one distinct quotient per task, each TX table stored as a quotient shared
// by content across edge classes (edgeTables, tx.go); the dense layout and
// its transpose are built on first read (EdgeTable, EdgeTableT), once per
// edge class. A finished Model is safe for concurrent use by any number of
// goroutines.
//
// Costs are in seconds of estimated per-step time (pricing.go): the sum of
// a strategy's layer and edge costs equals the simulator's step time minus
// the constant framework overhead, so cost-model rankings carry over to
// simulated throughput exactly.
type Model struct {
	G    *graph.Graph
	Spec machine.Spec
	// Policy controls configuration enumeration.
	Policy itspace.EnumPolicy

	r    float64
	cfgs [][]itspace.Config // per node: the enumerated configurations, index = config ID
	tl   [][]float64        // [node][cfgID], eager
	// Per edge, its class's TX table: the quotient, eager, and the dense
	// layout and its transpose, built on first read.
	txc []*edgeTables

	// info is K and the structural sharing of the tables (intern.go).
	info ModelInfo
	// builtCells counts the cells this build priced (BuildCells).
	builtCells int64

	// The per-node and per-edge class fingerprints: identities of the
	// tables, which delta re-solve compares across models. nil when
	// interning was disabled.
	vClassFP []canon.Fingerprint
	eClassFP []canon.Fingerprint

	edges  [][2]int
	inSlot []int       // input slot of v fed by each edge
	inc    [][]IncEdge // per-node incident edges
}

// parallelFor runs f(i) for every i in [0, n) on GOMAXPROCS workers. Each
// index is handled exactly once; f must only write state owned by its index.
// Cancellation is polled before every task — one task (one class's
// enumeration, one TX side, one quotient) is the unit of promptness — and a
// task claimed after it fires is skipped; every worker has returned when
// parallelFor does, so a cancelled build leaks no goroutines. Callers
// observe cancellation via ctx.Err() afterwards.
func parallelFor(ctx context.Context, n int, f func(i int)) {
	done := ctx.Done()
	par.For(n, runtime.GOMAXPROCS(0), func(i int) {
		select {
		case <-done:
		default:
			f(i)
		}
	})
}

// BuildOptions tunes model construction. The zero value is the default
// build.
type BuildOptions struct {
	// DisablePruning is read by nothing; it stays because benchmark/checks.go sets it.
	DisablePruning bool
	// DisableInterning skips structural sharing (intern.go): every node and
	// edge gets its own table build and backing slice, exactly as if the
	// graph had no repeated structure, and every TX table is stored dense,
	// sharing no row or column. Solves over the interned model are
	// byte-identical to this oracle; the property tests pin that.
	DisableInterning bool
	// Store, when non-nil, resolves class tables from a cross-request
	// ClassStore (store.go): classes already built for any earlier model
	// sharing the store are aliased instead of rebuilt, and fresh classes
	// are published for later builds. Requires interning (a DisableInterning
	// build computes no class fingerprints and ignores the store). Builds
	// through a store are byte-identical to store-less builds.
	Store *ClassStore
}

// NewModel enumerates configurations and precomputes all layer and edge cost
// tables for the graph on the given machine, parallelizing the per-class
// table builds across a worker pool. NewModelWith exposes the build options
// and build cancellation.
func NewModel(g *graph.Graph, spec machine.Spec, pol itspace.EnumPolicy) (*Model, error) {
	return NewModelWith(context.Background(), g, spec, pol, BuildOptions{})
}

// NewModelWith is NewModel under explicit build options and a cancellable
// context. The build worker pool polls ctx between tasks (per vertex class,
// per edge class), so cancelling mid-build returns ctx's error promptly — in
// coarse per-table steps — without leaking pool goroutines.
func NewModelWith(ctx context.Context, g *graph.Graph, spec machine.Spec, pol itspace.EnumPolicy, bo BuildOptions) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		G:      g,
		Spec:   spec,
		Policy: pol,
		r:      spec.R(),
		cfgs:   make([][]itspace.Config, g.Len()),
		tl:     make([][]float64, g.Len()),
	}
	m.edges = g.Edges()
	m.txc = make([]*edgeTables, len(m.edges))
	m.inSlot = make([]int, len(m.edges))
	m.inc = make([][]IncEdge, g.Len())
	for i, e := range m.edges {
		m.inSlot[i] = g.InputIndex(e[0], e[1])
		m.inc[e[0]] = append(m.inc[e[0]], IncEdge{E: i, Other: e[1], VIsU: true})
		m.inc[e[1]] = append(m.inc[e[1]], IncEdge{E: i, Other: e[0]})
	}
	// Phase 0: structural sharing plan (intern.go). Nodes with identical
	// cost-relevant content form one vertex class; edges whose TX tables
	// read identical sides form one edge class. Every table below
	// is built once per class and aliased to all members — byte-identical to
	// the per-occurrence build the DisableInterning oracle runs, minus the
	// repeated work and memory.
	plan := m.buildInternPlan()
	if bo.DisableInterning {
		plan = singletonPlan(g.Len(), len(m.edges))
	}
	// A ClassStore only keys by class fingerprints, which a singleton plan
	// does not compute; a DisableInterning build therefore never consults it.
	store := bo.Store
	if plan.vFPs == nil {
		store = nil
	}
	// Phase 1: configuration enumeration and layer-cost tables, one vertex
	// class per pool task, resolved from bo.Store when one is attached.
	classV := make([]vertexTables, len(plan.vReps))
	classErr := make([]error, len(plan.vReps))
	var tlCells atomic.Int64
	parallelFor(ctx, len(plan.vReps), func(ci int) {
		if store != nil {
			if val, ok := store.lookup(plan.vFPs[ci]); ok {
				classV[ci] = val.(vertexTables)
				return
			}
		}
		n := g.Nodes[plan.vReps[ci]]
		cs := itspace.Enumerate(n.Space, spec.Devices, pol)
		if len(cs) == 0 {
			classErr[ci] = fmt.Errorf("cost: node %d (%s) admits no configuration", n.ID, n.Name)
			return
		}
		t := vertexTables{cfgs: cs, tl: make([]float64, len(cs))}
		for i, c := range cs {
			t.tl[i] = TLSeconds(n, c, spec)
		}
		tlCells.Add(int64(len(cs)))
		if store != nil {
			t = store.publish(plan.vFPs[ci], t, configBytes(cs)+int64(len(t.tl))*8).(vertexTables)
		}
		classV[ci] = t
	})
	if err := buildErr(ctx, classErr); err != nil {
		return nil, err
	}
	for id := range m.cfgs {
		m.cfgs[id] = classV[plan.vClass[id]].cfgs
		m.tl[id] = classV[plan.vClass[id]].tl
	}
	// Phase 2: every TX table as its quotient (buildTX): each distinct TX
	// side is built once, each distinct quotient is computed once and shared
	// by content across edge classes, and each class keeps its own row and
	// column maps over it. The DisableInterning oracle builds one table per
	// edge and expands it to the dense table, which shares no row or column.
	// The dense layout and the transpose are lazy: admission and elimination
	// read the quotient, and elimination restricts it to dense tables, so
	// the dp route expands a quotient only for an edge whose two ends lost
	// nothing. A view is built by its first reader under its class's
	// sync.Once, the only state a finished model ever writes.
	classE, qCells, err := m.buildTX(ctx, plan, store)
	if err != nil {
		return nil, err
	}
	m.builtCells = tlCells.Load() + qCells
	for e := range m.edges {
		m.txc[e] = classE[plan.eClass[e]]
	}
	// The class fingerprints identify the tables across models; delta
	// detection compares them.
	if plan.vFPs != nil {
		m.vClassFP = make([]canon.Fingerprint, g.Len())
		for v := range m.vClassFP {
			m.vClassFP[v] = plan.vFPs[plan.vClass[v]]
		}
		m.eClassFP = make([]canon.Fingerprint, len(m.edges))
		for e := range m.eClassFP {
			m.eClassFP[e] = plan.eFPs[plan.eClass[e]]
		}
	}
	m.computeInfo(plan)
	return m, nil
}

// vertexTables is a vertex class's enumeration and layer-cost row.
type vertexTables struct {
	cfgs []itspace.Config
	tl   []float64
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

// buildErr is what a finished build phase reports: the cancellation cause
// if ctx ended, else the first class's error in class order.
func buildErr(ctx context.Context, classErr []error) error {
	if err := context.Cause(ctx); err != nil {
		return fmt.Errorf("cost: model build cancelled: %w", err)
	}
	for _, err := range classErr {
		if err != nil {
			return err
		}
	}
	return nil
}

// edgeTables is an edge class's TX table stored as its quotient: q has one
// row per distinct producer quotient vector and nc columns, one per distinct
// consumer vector, and rowOf[cu] and colOf[cv] name a configuration's row and
// column, so the cost of (cu, cv) is q[rowOf[cu]·nc + colOf[cv]]. Edge
// classes whose sides have the same distinct vectors share q, each with its
// own maps; the maps are their sides' and shared likewise. A table
// with nil maps is dense (nc = kv, every map the identity): the
// DisableInterning oracle's and elimination's restricted tables. max is the
// largest cell. The dense row-major layout (dense) and its transpose
// (transposed) are views, built by their first reader, once, and every
// model aliasing the class reads the same slices.
type edgeTables struct {
	q            []float64
	nc           int
	rowOf, colOf []int32
	ku, kv       int
	max          float64

	dOnce, tOnce sync.Once
	tab, tabT    []float64
}

// at is the cost of the producer's cu-th and the consumer's cv-th
// configuration.
func (t *edgeTables) at(cu, cv int) float64 {
	if t.rowOf != nil {
		cu, cv = int(t.rowOf[cu]), int(t.colOf[cv])
	}
	return t.q[cu*t.nc+cv]
}

// maps returns the row and column maps, ids[:ku] and ids[:kv] for a dense
// table; ids must count up from 0 to at least max(ku, kv).
func (t *edgeTables) maps(ids []int32) (rowOf, colOf []int32) {
	if t.rowOf == nil {
		return ids[:t.ku], ids[:t.kv]
	}
	return t.rowOf, t.colOf
}

// denseOver returns the dense row-major table over the producer
// configurations us and the consumer configurations vs:
// tab[i·len(vs)+j] is the cost of (us[i], vs[j]).
func (t *edgeTables) denseOver(us, vs []int32) []float64 {
	rowOf, colOf := t.maps(iota32(max(t.ku, t.kv)))
	tab := make([]float64, len(us)*len(vs))
	for i, cu := range us {
		row, dst := t.q[int(rowOf[cu])*t.nc:][:t.nc], tab[i*len(vs):][:len(vs)]
		for j, cv := range vs {
			dst[j] = row[colOf[cv]]
		}
	}
	return tab
}

// expand returns the dense row-major table, tab[cu·kv+cv].
func (t *edgeTables) expand() []float64 {
	ids := iota32(max(t.ku, t.kv))
	return t.denseOver(ids[:t.ku], ids[:t.kv])
}

// dense returns the dense row-major table: q itself when the table is
// dense, else expand's, built on the first call. The Once orders the build
// before every read, so concurrent callers, from any model aliasing the
// class, get the same slice.
func (t *edgeTables) dense() []float64 {
	if t.rowOf == nil {
		return t.q
	}
	t.dOnce.Do(func() { t.tab = t.expand() })
	return t.tab
}

// transposed returns the producer-minor transpose, tabT[cv·ku+cu] = the
// cost of (cu, cv), read straight from q on the first call and built once,
// as dense is.
func (t *edgeTables) transposed() []float64 {
	t.tOnce.Do(func() {
		rowOf, colOf := t.maps(iota32(max(t.ku, t.kv)))
		tabT := make([]float64, t.ku*t.kv)
		for cv, c := range colOf {
			col, dst := t.q[c:], tabT[cv*t.ku:][:t.ku]
			for cu, r := range rowOf {
				dst[cu] = col[int(r)*t.nc]
			}
		}
		t.tabT = tabT
	})
	return t.tabT
}

// iota32 returns 0, 1, …, n-1.
func iota32(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// BuildCells returns the cells a per-occurrence build prices, ΣK TL cells
// plus Σ K_u·K_v TX cells over the edges, and the cells this build priced:
// the TL rows of the vertex classes it built and the distinct quotient
// tables it computed, each once. A class taken from a ClassStore prices
// nothing.
func (m *Model) BuildCells() (nominal, priced int64) {
	for v := range m.cfgs {
		nominal += int64(len(m.cfgs[v]))
	}
	for _, t := range m.txc {
		nominal += int64(t.ku) * int64(t.kv)
	}
	return nominal, m.builtCells
}

// P returns the device count.
func (m *Model) P() int { return m.Spec.Devices }

// Configs returns the enumerated configuration list of node v: index i is
// config ID i. Do not mutate.
func (m *Model) Configs(v int) []itspace.Config { return m.cfgs[v] }

// K returns the number of configurations of node v — the size of the ID
// space the DP iterates over.
func (m *Model) K(v int) int { return len(m.cfgs[v]) }

// MaxK returns the paper's K: the maximum enumerated configuration count
// over all nodes.
func (m *Model) MaxK() int { return m.info.KEffective }

// IndexOf returns the config ID of cfg within node v, or -1.
func (m *Model) IndexOf(v int, cfg itspace.Config) int {
	for i, c := range m.cfgs[v] {
		if c.Equal(cfg) {
			return i
		}
	}
	return -1
}

// Edges returns the directed edge list in the model's canonical order.
func (m *Model) Edges() [][2]int { return m.edges }

// EdgeCost returns r·tx for edge e (model edge index) when the producer runs
// its cu-th configuration and the consumer its cv-th: one read of the
// quotient NewModel built, through the row and column maps, so it builds no
// view and is safe for concurrent use.
func (m *Model) EdgeCost(e, cu, cv int) float64 {
	return m.txc[e].at(cu, cv)
}

// EdgeTable exposes edge e's dense TX cost table and its row stride (the
// consumer's configuration count): vals[cu*kv+cv] = EdgeCost(e, cu, cv).
// The first call for an edge class expands the stored quotient; every model
// aliasing the class gets the same slice, and concurrent calls are safe. A
// DisableInterning model stores its tables dense, so writes through this
// slice are what EdgeCost reads. Do not mutate otherwise: elimination and
// the DP's table keys both name these bytes through the class fingerprints
// (EdgeClassFP).
func (m *Model) EdgeTable(e int) (vals []float64, kv int) {
	t := m.txc[e]
	return t.dense(), t.kv
}

// EdgeTableT exposes the producer-minor transpose of edge e's TX table and
// its row stride (the producer's configuration count):
// vals[cv*ku+cu] = EdgeCost(e, cu, cv). The solver picks whichever
// orientation makes its configuration scan contiguous. The first call for
// an edge class builds the transpose from the stored table, as EdgeTable
// builds the dense layout. Do not mutate: elimination and the DP's table
// keys both name these bytes through the class fingerprints (EdgeClassFP).
func (m *Model) EdgeTableT(e int) (vals []float64, ku int) {
	t := m.txc[e]
	return t.transposed(), t.ku
}

// TLRow exposes node v's full layer-cost table: TLRow(v)[ci] = TL(v, ci).
// Do not mutate: elimination and the DP's table keys both name these bytes
// through the class fingerprints (VertexClassFP).
func (m *Model) TLRow(v int) []float64 { return m.tl[v] }

// Incidence returns the directed edges incident to node v. Do not mutate.
func (m *Model) Incidence(v int) []IncEdge { return m.inc[v] }

// EvalIdx computes F(G, φ) for a strategy given as per-node configuration
// indices.
func (m *Model) EvalIdx(idx []int) float64 {
	total := 0.0
	for v := range m.tl {
		total += m.tl[v][idx[v]]
	}
	for e, uv := range m.edges {
		total += m.EdgeCost(e, idx[uv[0]], idx[uv[1]])
	}
	return total
}

// Eval computes F(G, φ) for a full strategy. Configurations not in the
// enumerated list (possible for hand-written expert strategies under a
// restrictive policy) are costed directly without memoization.
func (m *Model) Eval(s graph.Strategy) (float64, error) {
	return EvalStrategy(m.G, m.Spec, s)
}

// EvalStrategy computes F(G, φ) for one concrete strategy directly from the
// graph and machine — no configuration enumeration and no table build. It is
// how the planner prices the fixed baseline strategies (data parallelism,
// expert layouts): costing a single known strategy is O(|V| + |E|) pricing
// calls, so baselines never pay for a Model.
func EvalStrategy(g *graph.Graph, spec machine.Spec, s graph.Strategy) (float64, error) {
	if err := s.Validate(g, spec.Devices); err != nil {
		return 0, err
	}
	total := 0.0
	for _, n := range g.Nodes {
		total += TLSeconds(n, s[n.ID], spec)
	}
	for _, uv := range g.Edges() {
		u, v := uv[0], uv[1]
		total += TXSeconds(g.Nodes[u], g.Nodes[v], g.InputIndex(u, v), s[u], s[v], spec)
	}
	return total, nil
}

// NodeDelta returns the change in F when node v moves from configuration
// index oldC to newC with the rest of the strategy fixed — the cheap
// neighbourhood evaluation the MCMC search uses (paper §II: a configuration
// change only affects the node's own layer cost and its incident edges).
// It walks v's precomputed incidence list, so one proposal costs O(deg(v))
// table reads instead of a scan over every edge of the graph.
func (m *Model) NodeDelta(idx []int, v, oldC, newC int) float64 {
	d := m.tl[v][newC] - m.tl[v][oldC]
	for _, ie := range m.inc[v] {
		o := idx[ie.Other]
		if ie.VIsU {
			d += m.EdgeCost(ie.E, newC, o) - m.EdgeCost(ie.E, oldC, o)
		} else {
			d += m.EdgeCost(ie.E, o, newC) - m.EdgeCost(ie.E, o, oldC)
		}
	}
	return d
}

// StrategyFromIdx materializes configuration indices into a Strategy.
func (m *Model) StrategyFromIdx(idx []int) graph.Strategy {
	s := make(graph.Strategy, len(idx))
	for v, ci := range idx {
		s[v] = m.cfgs[v][ci].Clone()
	}
	return s
}

// IdxFromStrategy converts a strategy into configuration indices; it errors
// if some node's configuration is not in the enumerated list.
func (m *Model) IdxFromStrategy(s graph.Strategy) ([]int, error) {
	idx := make([]int, len(s))
	for v := range s {
		ci := m.IndexOf(v, s[v])
		if ci < 0 {
			return nil, fmt.Errorf("cost: node %d config %v not in enumerated list", v, s[v])
		}
		idx[v] = ci
	}
	return idx, nil
}

// PaperEval computes the paper's original Eq. 1 cost F(G, φ) in FLOP units
// (layer FLOPs plus r times communication bytes), for comparison with the
// default seconds-based pricing.
func (m *Model) PaperEval(s graph.Strategy) (float64, error) {
	if err := s.Validate(m.G, m.Spec.Devices); err != nil {
		return 0, err
	}
	total := 0.0
	for _, n := range m.G.Nodes {
		total += TL(n, s[n.ID], m.r)
	}
	for e, uv := range m.edges {
		u, v := uv[0], uv[1]
		total += float64(m.r * TXBytes(m.G.Nodes[u], m.G.Nodes[v], m.inSlot[e], s[u], s[v]))
	}
	return total, nil
}
