package cost

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"

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
	// Self marks a self-loop; it appears once in the node's incidence list.
	Self bool
}

// Model binds a computation graph to a machine spec and precomputes every
// layer and edge cost the strategy search needs. The dynamic program, the
// MCMC search, and the exhaustive baselines all evaluate strategies through
// one Model, so they rank candidates under the identical cost function.
//
// All cost tables are built eagerly at NewModel time, one class per task on
// GOMAXPROCS workers (parallelFor), each TX table in one orientation; its
// transpose is built on first read (EdgeTableT), once per edge class. A
// finished Model is safe for concurrent use by any number of goroutines.
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
	tx   [][]float64        // [edge][cu*Kv+cv], eager
	txKv []int              // row stride of tx: the consumer's config count
	// Per edge, its class's tables (tab is tx[e]): the reps, the largest
	// cell and the transpose, built on first read.
	txc []*edgeTables

	// info is K and the structural sharing of the tables (intern.go).
	info ModelInfo

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
// enumeration, one edge class's table) is the unit of promptness — and a task
// claimed after it fires is skipped; every worker has returned when
// parallelFor does, so a cancelled build leaks no goroutines. Callers observe
// cancellation via ctx.Err() afterwards.
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
	// graph had no repeated structure. Solves over the interned model are
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
	m.tx = make([][]float64, len(m.edges))
	m.txKv = make([]int, len(m.edges))
	m.txc = make([]*edgeTables, len(m.edges))
	m.inSlot = make([]int, len(m.edges))
	m.inc = make([][]IncEdge, g.Len())
	for i, e := range m.edges {
		m.inSlot[i] = g.InputIndex(e[0], e[1])
		if e[0] == e[1] {
			m.inc[e[0]] = append(m.inc[e[0]], IncEdge{E: i, Other: e[0], Self: true})
		} else {
			m.inc[e[0]] = append(m.inc[e[0]], IncEdge{E: i, Other: e[1], VIsU: true})
			m.inc[e[1]] = append(m.inc[e[1]], IncEdge{E: i, Other: e[0]})
		}
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
	parallelFor(ctx, len(plan.vReps), func(ci int) {
		classV[ci], classErr[ci] = resolveClass(store, plan.vFPs, ci, func() (vertexTables, int64, error) {
			n := g.Nodes[plan.vReps[ci]]
			cs := itspace.Enumerate(n.Space, spec.Devices, pol)
			if len(cs) == 0 {
				return vertexTables{}, 0, fmt.Errorf("cost: node %d (%s) admits no configuration", n.ID, n.Name)
			}
			tl := make([]float64, len(cs))
			for i, c := range cs {
				tl[i] = TLSeconds(n, c, spec)
			}
			return vertexTables{cfgs: cs, tl: tl}, configBytes(cs) + int64(len(tl))*8, nil
		})
	})
	if err := buildErr(ctx, classErr); err != nil {
		return nil, err
	}
	for id := range m.cfgs {
		m.cfgs[id] = classV[plan.vClass[id]].cfgs
		m.tl[id] = classV[plan.vClass[id]].tl
	}
	for i, e := range m.edges {
		m.txKv[i] = len(m.cfgs[e[1]])
	}
	// Phase 2: every TX table, row-major, one edge class per pool task
	// (txTables). The transposes are lazy: admission and elimination read
	// none (elimination gathers what it needs from the row-major table), so
	// the dp route builds only those its DP reads. A transpose is built by
	// its first reader under its class's sync.Once, the only state a
	// finished model ever writes.
	txBW := GroupBW(spec, float64(spec.Devices))
	classE := make([]*edgeTables, len(plan.eReps))
	classErr = make([]error, len(plan.eReps))
	parallelFor(ctx, len(plan.eReps), func(ci int) {
		classE[ci], classErr[ci] = resolveClass(store, plan.eFPs, ci, func() (*edgeTables, int64, error) {
			e := plan.eReps[ci]
			u, v := m.edges[e][0], m.edges[e][1]
			t := txTables(g.Nodes[u], g.Nodes[v], m.inSlot[e], m.cfgs[u], m.cfgs[v], txBW, spec.LatencySec)
			// The store charges the transpose the entry may grow.
			return t, int64(len(t.tab)) * 16, nil
		})
	})
	if err := buildErr(ctx, classErr); err != nil {
		return nil, err
	}
	for e := range m.edges {
		m.txc[e] = classE[plan.eClass[e]]
		m.tx[e] = m.txc[e].tab
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

// resolveClass returns the tables of class ci: built directly when store is
// nil, else resolved from the store under fps[ci].
func resolveClass[T any](store *ClassStore, fps []canon.Fingerprint, ci int, build func() (T, int64, error)) (T, error) {
	if store == nil {
		val, _, err := build()
		return val, err
	}
	val, err := store.resolve(fps[ci], func() (any, int64, error) { return build() })
	if err != nil {
		var zero T
		return zero, err
	}
	return val.(T), nil
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

// txSide is one side of an edge's TX table. Per configuration c it holds the
// quotient vector q[c·nd+t] = s[t]/g[t] of the edge tensor's extents by the
// granularities that side imposes, their product prod[c] (multiplied in t
// order, as TXBytes does), and rep[c], the first configuration whose
// quotient vector has the same bytes.
type txSide struct {
	q    []float64
	prod []float64
	rep  []int32
}

func newTXSide(ref graph.TensorRef, sp itspace.Space, cfgs []itspace.Config, s []float64) txSide {
	nd := len(s)
	side := txSide{q: make([]float64, len(cfgs)*nd), prod: make([]float64, len(cfgs)), rep: make([]int32, len(cfgs))}
	seen := make(map[string]int32, len(cfgs))
	key := make([]byte, 8*nd)
	for c, cfg := range cfgs {
		q := side.q[c*nd : c*nd+nd]
		granularitiesInto(q, ref, sp, cfg, s)
		p := 1.0
		for t := range q {
			q[t] = s[t] / q[t]
			p *= q[t]
			binary.LittleEndian.PutUint64(key[8*t:], math.Float64bits(q[t]))
		}
		side.prod[c] = p
		r, ok := seen[string(key)]
		if !ok {
			r = int32(c)
			seen[string(key)] = r
		}
		side.rep[c] = r
	}
	return side
}

// txTables builds one edge class's TX table, tab[cu·kv+cv] = TXSeconds of
// the producer's cu-th and the consumer's cv-th configuration,
// bit-identical to TXSeconds without dividing per cell. TXBytes
// multiplies s[t]/g[t] into need (consumer), held (producer) and have (with
// the larger granularity); a side's quotients and products depend only on
// its own configuration, so txSide computes them once per row and column,
// and have is Π min(qu[t], qv[t]) because correctly rounded division is
// monotone: fl(s/max(a, b)) = min(fl(s/a), fl(s/b)). A cell reads nothing
// but its two quotient vectors, so a row whose vector repeats an earlier
// one copies that row, and a column that repeats one reads that column's
// cell in the same row.
func txTables(nu, nv *graph.Node, inSlot int, cfgsU, cfgsV []itspace.Config, txBW, latency float64) *edgeTables {
	out, in := nu.Output, nv.Inputs[inSlot]
	s := make([]float64, len(out.Map))
	for t := range out.Map {
		s[t] = float64(out.Extent(nu.Space, t))
	}
	nd := len(s)
	pu := newTXSide(out, nu.Space, cfgsU, s)
	pv := newTXSide(in, nv.Space, cfgsV, s)
	scale := out.EffScale()
	ku, kv := len(cfgsU), len(cfgsV)
	tab := make([]float64, ku*kv)
	mx := 0.0
	for cu := 0; cu < ku; cu++ {
		row := tab[cu*kv : cu*kv+kv]
		if r := int(pu.rep[cu]); r != cu {
			copy(row, tab[r*kv:r*kv+kv])
			continue
		}
		qu, held := pu.q[cu*nd:cu*nd+nd], pu.prod[cu]
		for cv := range row {
			if r := int(pv.rep[cv]); r != cv {
				row[cv] = row[r]
				continue
			}
			qv := pv.q[cv*nd:][:len(qu)]
			have := 1.0
			for t, x := range qu {
				have *= min(x, qv[t])
			}
			fwd := (pv.prod[cv] - have) * scale // consumer shortfall: activations
			bwd := (held - have) * scale        // producer shortfall: gradients
			if fwd < 0 {
				fwd = 0
			}
			if bwd < 0 {
				bwd = 0
			}
			c := 0.0
			if bytes := (fwd + bwd) * BytesPerElem; bytes > 0 {
				c = bytes/txBW + latency
			}
			row[cv] = c
			mx = max(mx, c)
		}
	}
	return &edgeTables{tab: tab, repU: pu.rep, repV: pv.rep, max: mx}
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
// its cu-th configuration and the consumer its cv-th. Tables are built
// eagerly by NewModel, so this is a plain read, safe for concurrent use.
func (m *Model) EdgeCost(e, cu, cv int) float64 {
	return m.tx[e][cu*m.txKv[e]+cv]
}

// EdgeTable exposes edge e's full TX cost table and its row stride (the
// consumer's configuration count): vals[cu*kv+cv] = EdgeCost(e, cu, cv).
// Do not mutate: elimination and the DP's table keys both name these bytes
// through the class fingerprints (EdgeClassFP).
func (m *Model) EdgeTable(e int) (vals []float64, kv int) {
	return m.tx[e], m.txKv[e]
}

// EdgeTableT exposes the producer-minor transpose of edge e's TX table and
// its row stride (the producer's configuration count):
// vals[cv*ku+cu] = EdgeCost(e, cu, cv). The solver picks whichever
// orientation makes its configuration scan contiguous. The first call for
// an edge class builds the transpose; every model aliasing the class gets
// the same slice, and concurrent calls are safe. Do not mutate: elimination
// and the DP's table keys both name these bytes through the class
// fingerprints (EdgeClassFP).
func (m *Model) EdgeTableT(e int) (vals []float64, ku int) {
	return m.txc[e].transposed(), len(m.cfgs[m.edges[e][0]])
}

// TLRow exposes node v's full layer-cost table: TLRow(v)[ci] = TL(v, ci).
// Do not mutate: elimination and the DP's table keys both name these bytes
// through the class fingerprints (VertexClassFP).
func (m *Model) TLRow(v int) []float64 { return m.tl[v] }

// Incidence returns the directed edges incident to node v, self-loops listed
// once with Self set. Do not mutate.
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
		switch {
		case ie.Self:
			d += m.EdgeCost(ie.E, newC, newC) - m.EdgeCost(ie.E, oldC, oldC)
		case ie.VIsU:
			o := idx[ie.Other]
			d += m.EdgeCost(ie.E, newC, o) - m.EdgeCost(ie.E, oldC, o)
		default:
			o := idx[ie.Other]
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
