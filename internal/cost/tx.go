package cost

import (
	"context"
	"encoding/binary"
	"math"
	"strings"
	"sync/atomic"

	"pase/internal/graph"
	"pase/internal/itspace"
)

// buildTX is NewModelWith's phase 2: the TX table of every edge class.
//
// An interned plan builds each distinct txSide once: a side reads the space
// and the tensor ref the plan's side id names, and the edge tensor's
// extents, which are the producer's, so (side id, extents) is its key; a
// producer's output side and a consumer's input side with the same key are
// one side. Each distinct quotient is then computed once, keyed by its two
// sides' distinct quotient vectors and the producer's EffScale, which are
// all a cell reads, and every edge class keeps its own row and column maps
// (its sides' of) over the shared q: the bytes of each table are the
// per-class build's. A class the store holds is taken from it and builds
// nothing.
//
// The singleton plan of the DisableInterning oracle builds one table per
// edge with txTables and stores it dense.
//
// The second result counts the quotient cells computed.
func (m *Model) buildTX(ctx context.Context, plan *internPlan, store *ClassStore) ([]*edgeTables, int64, error) {
	txBW, latency := GroupBW(m.Spec, float64(m.Spec.Devices)), m.Spec.LatencySec
	classE := make([]*edgeTables, len(plan.eReps))
	if plan.eSides == nil {
		var cells atomic.Int64
		parallelFor(ctx, len(plan.eReps), func(ci int) {
			e := plan.eReps[ci]
			u, v := m.edges[e][0], m.edges[e][1]
			t := txTables(m.G.Nodes[u], m.G.Nodes[v], m.inSlot[e], m.cfgs[u], m.cfgs[v], txBW, latency)
			classE[ci] = &edgeTables{q: t.expand(), nc: t.kv, ku: t.ku, kv: t.kv, max: t.max}
			cells.Add(int64(len(t.q)))
		})
		return classE, cells.Load(), buildErr(ctx, nil)
	}

	// The classes to build, each with its two sides. A side is keyed by its
	// side id and the edge tensor's extents, which are the producer's.
	type sideKey struct {
		side    int
		extents string
	}
	type sideJob struct {
		n, producer *graph.Node
		ref         graph.TensorRef
	}
	var (
		need   []int
		ends   [][2]int // per class in need: its producer and consumer side
		jobs   []sideJob
		sideOf = map[sideKey]int{}
		key    []byte
	)
	side := func(k sideKey, job sideJob) int {
		j, ok := sideOf[k]
		if !ok {
			j = len(jobs)
			sideOf[k] = j
			jobs = append(jobs, job)
		}
		return j
	}
	for ci := range classE {
		if store != nil {
			if val, ok := store.lookup(plan.eFPs[ci]); ok {
				classE[ci] = val.(*edgeTables)
				continue
			}
		}
		e := plan.eReps[ci]
		nu, nv := m.G.Nodes[m.edges[e][0]], m.G.Nodes[m.edges[e][1]]
		key = key[:0]
		for t := range nu.Output.Map {
			key = binary.LittleEndian.AppendUint64(key, uint64(nu.Output.Extent(nu.Space, t)))
		}
		need = append(need, ci)
		ends = append(ends, [2]int{
			side(sideKey{plan.eSides[ci][0], string(key)}, sideJob{nu, nu, nu.Output}),
			side(sideKey{plan.eSides[ci][1], string(key)}, sideJob{nv, nu, nv.Inputs[m.inSlot[e]]}),
		})
	}
	sides := make([]txSide, len(jobs))
	parallelFor(ctx, len(jobs), func(j int) {
		job := jobs[j]
		sides[j] = newTXSide(job.ref, job.n.Space, m.cfgs[job.n.ID], edgeExtents(job.producer))
	})
	if err := buildErr(ctx, nil); err != nil {
		return nil, 0, err
	}

	// One quotient per distinct (producer vectors, consumer vectors, scale);
	// the vectors' length is in the key, since their bytes do not tell it.
	type tableKey struct {
		nd    int
		u, v  string
		scale uint64
	}
	type tableJob struct {
		u, v  int
		scale float64
	}
	tableOf := map[tableKey]int{}
	var tjobs []tableJob
	tabOf := make([]int, len(need))
	for i, ci := range need {
		scale := m.G.Nodes[m.edges[plan.eReps[ci]][0]].Output.EffScale()
		u, v := ends[i][0], ends[i][1]
		k := tableKey{sides[u].nd, sides[u].vecs, sides[v].vecs, math.Float64bits(scale)}
		t, ok := tableOf[k]
		if !ok {
			t = len(tjobs)
			tableOf[k] = t
			tjobs = append(tjobs, tableJob{u, v, scale})
		}
		tabOf[i] = t
	}
	tables := make([]*edgeTables, len(tjobs))
	parallelFor(ctx, len(tjobs), func(t int) {
		j := tjobs[t]
		tables[t] = quotient(&sides[j.u], &sides[j.v], j.scale, txBW, latency)
	})
	if err := buildErr(ctx, nil); err != nil {
		return nil, 0, err
	}
	var cells int64
	for _, t := range tables {
		cells += int64(len(t.q))
	}
	for i, ci := range need {
		pu, pv, q := &sides[ends[i][0]], &sides[ends[i][1]], tables[tabOf[i]]
		var t any = &edgeTables{q: q.q, nc: q.nc, rowOf: pu.of, colOf: pv.of, ku: len(pu.of), kv: len(pv.of), max: q.max}
		if store != nil {
			t = store.publish(plan.eFPs[ci], t, int64(len(q.q))*8)
		}
		classE[ci] = t.(*edgeTables)
	}
	return classE, cells, nil
}

// edgeExtents returns the extents of the tensor on producer nu's output
// edges.
func edgeExtents(nu *graph.Node) []float64 {
	s := make([]float64, len(nu.Output.Map))
	for t := range s {
		s[t] = float64(nu.Output.Extent(nu.Space, t))
	}
	return s
}

// txSide is one side of an edge's TX table. Per configuration c it holds the
// quotient vector q[c·nd+t] = s[t]/g[t] of the edge tensor's extents by the
// granularities that side imposes, their product prod[c] (multiplied in t
// order, as TXBytes does), and of[c], the index of its quotient vector among
// the side's distinct ones (by bytes, in order of first appearance); reps[i]
// is the first configuration with the i-th, and vecs is the distinct
// vectors' bytes in that order, all that a table reads of the side.
type txSide struct {
	nd   int
	q    []float64
	prod []float64
	of   []int32
	reps []int32
	vecs string
}

func newTXSide(ref graph.TensorRef, sp itspace.Space, cfgs []itspace.Config, s []float64) txSide {
	nd := len(s)
	side := txSide{nd: nd, q: make([]float64, len(cfgs)*nd), prod: make([]float64, len(cfgs)), of: make([]int32, len(cfgs))}
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
		i, ok := seen[string(key)]
		if !ok {
			i = int32(len(side.reps))
			seen[string(key)] = i
			side.reps = append(side.reps, int32(c))
		}
		side.of[c] = i
	}
	var vecs strings.Builder
	vecs.Grow(len(key) * len(side.reps))
	for _, c := range side.reps {
		for _, x := range side.q[int(c)*nd:][:nd] {
			vecs.Write(binary.LittleEndian.AppendUint64(key[:0], math.Float64bits(x)))
		}
	}
	side.vecs = vecs.String()
	return side
}

// txTables builds one edge's TX table as its quotient on its own, building
// both sides: the DisableInterning oracle's per-edge build.
func txTables(nu, nv *graph.Node, inSlot int, cfgsU, cfgsV []itspace.Config, txBW, latency float64) *edgeTables {
	s := edgeExtents(nu)
	pu := newTXSide(nu.Output, nu.Space, cfgsU, s)
	pv := newTXSide(nv.Inputs[inSlot], nv.Space, cfgsV, s)
	return quotient(&pu, &pv, nu.Output.EffScale(), txBW, latency)
}

// quotient builds the TX table of the sides pu and pv as its quotient: the
// cell of the i-th distinct producer and the j-th distinct consumer quotient
// vector is TXSeconds of their first configurations, bit-identical to
// TXSeconds without dividing per cell. TXBytes multiplies s[t]/g[t] into need
// (consumer), held (producer) and have (with the larger granularity); a
// side's quotients and products depend only on its own configuration, so
// txSide computes them once per configuration, and have is
// Π min(qu[t], qv[t]) because correctly rounded division is monotone:
// fl(s/max(a, b)) = min(fl(s/a), fl(s/b)). A cell reads nothing but its two
// quotient vectors and scale, so configurations with equal vectors share a
// row or a column, and sides with equal vectors share the table.
func quotient(pu, pv *txSide, scale, txBW, latency float64) *edgeTables {
	nd, nc := pu.nd, len(pv.reps)
	q := make([]float64, len(pu.reps)*nc)
	mx := 0.0
	for i, cu := range pu.reps {
		row := q[i*nc:][:nc]
		qu, held := pu.q[int(cu)*nd:][:nd], pu.prod[cu]
		for j, cv := range pv.reps {
			qv := pv.q[int(cv)*nd:][:len(qu)]
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
			row[j] = c
			mx = max(mx, c)
		}
	}
	return &edgeTables{q: q, nc: nc, rowOf: pu.of, colOf: pv.of, ku: len(pu.of), kv: len(pv.of), max: mx}
}
