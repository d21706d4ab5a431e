package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/seq"
)

// naivePartial is a join-in-progress state of the reference pass: the
// configuration of every member of D(i) (-1 while unassigned), v's own, and
// the accumulated cost.
type naivePartial struct {
	dig  []int
	c    int
	cost float64
}

// naiveBeamPass is the bounded-width pass by definition: at every step
// generate every compatible extension, sort the lot under (cost, flat, c)
// with slices.SortFunc, and cut to k; per table group by flat, keep the
// width cheapest flats and force-retain the guide state. It keeps
// configurations per node instead of flat indices and strides, reads edge
// costs through Model.EdgeCost, and shares only the summation order
// (partial + (child + edge rows in D(j) order)) with the kernel; the guide
// strategy is computed here by definition. steps is the number of
// generation steps, wide how many of them
// generated at least 4k candidates, and states the (entry, partial) pairs it
// looked at — what the kernel's States counts when its early stop never fires.
func naiveBeamPass(t *testing.T, m *cost.Model, sq *seq.Sequence, width, k int) (tables []beamTable, costV float64, idx []int, exact bool, steps, wide int, states int64) {
	t.Helper()
	n := m.G.Len()
	children := seq.Children(m.G, sq)
	// The guide by definition: nodes in ID order, each taking its first
	// configuration of least TL plus TX to the nodes before it.
	guide := make([]int, n)
	for v := range guide {
		best := math.Inf(1)
		for c := range m.K(v) {
			s := m.TLRow(v)[c]
			for _, ie := range m.Incidence(v) {
				switch {
				case ie.Other > v:
				case ie.VIsU:
					s += m.EdgeCost(ie.E, c, guide[ie.Other])
				default:
					s += m.EdgeCost(ie.E, guide[ie.Other], c)
				}
			}
			if s < best {
				best, guide[v] = s, c
			}
		}
	}
	tables = make([]beamTable, n)
	exact = true

	// flatOf is the table index of position pos under cfg (configuration by
	// node id), unassigned members counting as 0.
	flatOf := func(pos int, cfg func(d int) int) int64 {
		flat, stride := int64(0), int64(1)
		for _, d := range sq.Dep[pos] {
			if c := cfg(d); c >= 0 {
				flat += int64(c) * stride
			}
			stride *= int64(m.K(d))
		}
		return flat
	}
	find := func(tb beamTable, flat int64) int {
		j := slices.Index(tb.flats, flat)
		if j < 0 {
			t.Fatalf("naive beam: flat %d not retained", flat)
		}
		return j
	}

	for i, v := range sq.Order {
		dep := sq.Dep[i]
		flat := func(p naivePartial) int64 {
			return flatOf(i, func(d int) int { return p.dig[slices.Index(dep, d)] })
		}
		// edgeCost is the cost of v's incident edge ie with v at c and the
		// other endpoint at cd; edges lists those of v's edges to the later
		// vertex d, in incidence order.
		edgeCost := func(ie cost.IncEdge, c, cd int) float64 {
			if ie.VIsU {
				return m.EdgeCost(ie.E, c, cd)
			}
			return m.EdgeCost(ie.E, cd, c)
		}
		edges := func(c, d, cd int) (out []float64) {
			for _, ie := range m.Incidence(v) {
				if ie.Other == d && sq.Pos[d] > i {
					out = append(out, edgeCost(ie, c, cd))
				}
			}
			return out
		}
		cut := func(ps []naivePartial) []naivePartial {
			steps++
			if len(ps) >= 4*k {
				wide++
			}
			slices.SortFunc(ps, func(a, b naivePartial) int {
				return cmp.Or(cmp.Compare(a.cost, b.cost), cmp.Compare(flat(a), flat(b)), cmp.Compare(a.c, b.c))
			})
			if len(ps) > k {
				exact = false
				ps = ps[:k]
			}
			return ps
		}

		var cur []naivePartial
		for c := 0; c < m.K(v); c++ {
			dig := make([]int, len(dep))
			for k := range dig {
				dig[k] = -1
			}
			cur = append(cur, naivePartial{dig: dig, c: c, cost: m.TLRow(v)[c]})
		}
		cur = cut(cur)
		assigned := make([]bool, len(dep))

		for _, j := range children[i] {
			dj := sq.Dep[j]
			var next []naivePartial
			for ei, rem := range tables[j].flats {
				val := make(map[int]int, len(dj))
				for _, d := range dj {
					val[d] = int(rem % int64(m.K(d)))
					rem /= int64(m.K(d))
				}
				for _, p := range cur {
					states++
					ok := true
					add := tables[j].costs[ei]
					dig := slices.Clone(p.dig)
					for _, d := range dj {
						if d == v {
							ok = ok && p.c == val[d]
							continue
						}
						k := slices.Index(dep, d)
						if assigned[k] {
							ok = ok && p.dig[k] == val[d]
							continue
						}
						dig[k] = val[d]
						for _, x := range edges(p.c, d, val[d]) {
							add += x
						}
					}
					if ok {
						next = append(next, naivePartial{dig: dig, c: p.c, cost: p.cost + add})
					}
				}
			}
			for _, d := range dj {
				if d != v {
					assigned[slices.Index(dep, d)] = true
				}
			}
			cur = cut(next)
		}
		for k, d := range dep {
			if assigned[k] {
				continue
			}
			var next []naivePartial
			for cd := 0; cd < m.K(d); cd++ {
				for _, p := range cur {
					states++
					add := 0.0
					for _, x := range edges(p.c, d, cd) {
						add += x
					}
					dig := slices.Clone(p.dig)
					dig[k] = cd
					next = append(next, naivePartial{dig: dig, c: p.c, cost: p.cost + add})
				}
			}
			assigned[k] = true
			cur = cut(next)
		}

		// One state per flat — the cheapest, smallest configuration on ties —
		// then the width cheapest flats.
		slices.SortFunc(cur, func(a, b naivePartial) int {
			return cmp.Or(cmp.Compare(flat(a), flat(b)), cmp.Compare(a.cost, b.cost), cmp.Compare(a.c, b.c))
		})
		cur = slices.CompactFunc(cur, func(a, b naivePartial) bool { return flat(a) == flat(b) })
		if len(cur) > width {
			exact = false
			slices.SortFunc(cur, func(a, b naivePartial) int {
				return cmp.Or(cmp.Compare(a.cost, b.cost), cmp.Compare(flat(a), flat(b)))
			})
			cur = cur[:width]
		}
		var tb beamTable
		for _, p := range cur {
			tb.flats = append(tb.flats, flat(p))
			tb.costs = append(tb.costs, p.cost)
			tb.choices = append(tb.choices, int32(p.c))
		}

		// The guide state, valued through the children's guide states.
		byGuide := func(d int) int { return guide[d] }
		gVal := m.TLRow(v)[guide[v]]
		for _, ie := range m.Incidence(v) {
			if sq.Pos[ie.Other] > i {
				gVal += edgeCost(ie, guide[v], guide[ie.Other])
			}
		}
		for _, j := range children[i] {
			gVal += tables[j].costs[find(tables[j], flatOf(j, byGuide))]
		}
		if j := slices.Index(tb.flats, flatOf(i, byGuide)); j < 0 {
			tb.flats = append(tb.flats, flatOf(i, byGuide))
			tb.costs = append(tb.costs, gVal)
			tb.choices = append(tb.choices, int32(guide[v]))
		} else if gVal < tb.costs[j] {
			tb.costs[j], tb.choices[j] = gVal, int32(guide[v])
		}
		order := make([]int, len(tb.flats))
		for j := range order {
			order[j] = j
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(tb.flats[a], tb.flats[b]) })
		for _, j := range order {
			tables[i].flats = append(tables[i].flats, tb.flats[j])
			tables[i].costs = append(tables[i].costs, tb.costs[j])
			tables[i].choices = append(tables[i].choices, tb.choices[j])
		}
	}

	idx = make([]int, n)
	for v := range idx {
		idx[v] = -1
	}
	var walk func(pos int)
	walk = func(pos int) {
		tb := tables[pos]
		idx[sq.Order[pos]] = int(tb.choices[find(tb, flatOf(pos, func(d int) int { return idx[d] }))])
		for _, j := range children[pos] {
			walk(j)
		}
	}
	walk(n - 1)
	return tables, tables[n-1].costs[0], idx, exact, steps, wide, states
}

// requireBeamMatchesNaive runs the kernel and the reference at one width and
// join cap and requires every retained table, the cost, the strategy and the
// exactness flag to be equal.
func requireBeamMatchesNaive(t *testing.T, label string, m *cost.Model, sq *seq.Sequence, width, k int) (exact bool, steps, wide int) {
	t.Helper()
	want, wantCost, wantIdx, wantExact, steps, wide, generated := naiveBeamPass(t, m, sq, width, k)
	res, exact, err := newBeamPlan(m, sq).pass(context.Background(), Options{}, width, k, func(pos int, got beamTable) {
		if !slices.Equal(got.flats, want[pos].flats) || !slices.Equal(got.costs, want[pos].costs) || !slices.Equal(got.choices, want[pos].choices) {
			t.Fatalf("%s: table at position %d differs:\n got %v\n     %v\n     %v\nwant %v\n     %v\n     %v", label, pos,
				got.flats, got.costs, got.choices, want[pos].flats, want[pos].costs, want[pos].choices)
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if res.Cost != wantCost || !slices.Equal(res.Idx, wantIdx) || exact != wantExact {
		t.Fatalf("%s: cost %v idx %v exact %v, reference %v %v %v", label, res.Cost, res.Idx, exact, wantCost, wantIdx, wantExact)
	}
	var total, most int64
	for _, tb := range want {
		total, most = total+int64(len(tb.flats)), max(most, int64(len(tb.flats)))
	}
	if res.Stats.TotalEntries != total || res.Stats.MaxTable != most {
		t.Fatalf("%s: %d entries, largest table %d; the reference's tables hold %d, largest %d", label, res.Stats.TotalEntries, res.Stats.MaxTable, total, most)
	}
	// The ledger: a table is charged 5 units an entry when kept, and its
	// costs' 2 come back after its last reader.
	freeAt := freePlan(seq.Children(m.G, sq), nil)
	var live, peak int64
	for i, tb := range want {
		live += 5 * int64(len(tb.flats))
		peak = max(peak, (live+2)/3)
		for _, j := range freeAt[i] {
			live -= 2 * int64(len(want[j].flats))
		}
	}
	if res.Stats.PeakLiveEntries != peak {
		t.Fatalf("%s: peak live entries %d, the reference's ledger %d", label, res.Stats.PeakLiveEntries, peak)
	}
	// No frontier was cut on an exact pass, so no early stop fired: the
	// kernel evaluated every candidate the reference generated.
	if res.Stats.States > generated || exact && res.Stats.States != generated {
		t.Fatalf("%s: kernel evaluated %d candidates (exact %v), the reference generated %d", label, res.Stats.States, exact, generated)
	}
	return exact, steps, wide
}

// The bounded-selection kernel against the definition, on the adversarial
// generator of the scan tests (constant rows, +Inf, ties, K=1) under
// GENERATESEQ and random orderings: at every width, with the production join
// cap and with caps small enough that one generation step overflows the 2k
// frontier several times over, every table, the cost, the strategy and the
// exact/pruned flag must equal generate-everything, full sort, cut. From
// trial 120 on, a node or two also reads one producer twice — two edges
// between the same pair, with their own tables — so that a digit no subset
// covers is enumerated over two edge rows, which the random layer graphs
// alone never give. Every eighth trial numbers the nodes in reverse, so that
// each edge runs from a higher ID to a lower one.
func TestBeamKernelMatchesNaiveOnAdversarialTables(t *testing.T) {
	var steps, wide, exactPasses, passes, twoRow int
	for trial := 0; trial < 160; trial++ {
		rng := rand.New(rand.NewSource(int64(7100 + trial)))
		n := 3 + rng.Intn(5)
		g := adversarialGraph(rng, n)
		if trial >= 120 {
			for reads := 1 + rng.Intn(2); reads > 0; reads-- {
				b := 1 + rng.Intn(n-1)
				g.Nodes[b].Inputs = append(g.Nodes[b].Inputs, graph.TensorRef{Map: []int{0, 2}})
				g.AddEdge(g.Nodes[g.In(b)[0]], g.Nodes[b])
			}
		}
		if trial%8 == 7 {
			r := graph.New()
			for i := range g.Nodes {
				r.AddNode(g.Nodes[len(g.Nodes)-1-i])
			}
			for v := range r.Nodes {
				for _, u := range g.In(len(g.Nodes) - 1 - v) {
					r.AddEdge(r.Nodes[len(g.Nodes)-1-u], r.Nodes[v])
				}
			}
			g = r
		}
		m := adversarialCosts(t, rng, g, []int{2, 4, 8}[trial%3])
		sq := seq.Generate(m.G)
		if trial%2 == 1 {
			sq = seq.FromOrder(m.G, rng.Perm(n))
		}
		twoRow += twoRowDigits(m, sq)
		for _, width := range []int{1, 2, 8, 64} {
			for _, k := range []int{2, 5, beamJoinCap(width)} {
				exact, s, w := requireBeamMatchesNaive(t, fmt.Sprintf("trial %d W=%d k=%d", trial, width, k), m, sq, width, k)
				steps, wide = steps+s, wide+w
				if k == beamJoinCap(width) {
					passes++
					if exact {
						exactPasses++
					}
				}
			}
		}
	}
	// A partial whose bound ties the frontier's threshold may still enter it
	// on a smaller flat: the walk stops only strictly above the threshold.
	rng := rand.New(rand.NewSource(90179))
	n := 3 + rng.Intn(5)
	m := adversarialCosts(t, rng, adversarialGraph(rng, n), 8)
	requireBeamMatchesNaive(t, "threshold tie", m, seq.FromOrder(m.G, rng.Perm(n)), 8, 5)
	if wide < 200 {
		t.Errorf("only %d of %d generation steps produced 4k or more candidates — too few to compact a 2k frontier repeatedly", wide, steps)
	}
	if exactPasses == 0 || exactPasses == passes {
		t.Errorf("%d of %d production-cap passes were exact — want both outcomes covered", exactPasses, passes)
	}
	if twoRow == 0 {
		t.Error("no ordering left a digit uncovered with two edge rows")
	}
	t.Logf("%d generation steps, %d with >= 4k candidates; %d of %d production-cap passes exact; %d uncovered digits with two or more edge rows",
		steps, wide, exactPasses, passes, twoRow)
}

// twoRowDigits counts the digits of sq's dependent sets that no subset covers
// and that two or more edges of the position's vertex read: the uncovered
// digits a join enumerates over more than one edge row.
func twoRowDigits(m *cost.Model, sq *seq.Sequence) (n int) {
	children := seq.Children(m.G, sq)
	for i, v := range sq.Order {
		covered := make(map[int]bool)
		for _, j := range children[i] {
			for _, d := range sq.Dep[j][1:] {
				covered[d] = true
			}
		}
		for _, d := range sq.Dep[i] {
			rows := 0
			for _, ie := range m.Incidence(v) {
				if ie.Other == d {
					rows++
				}
			}
			if !covered[d] && rows >= 2 {
				n++
			}
		}
	}
	return n
}

// The same equality on real cost tables: the shallow GPT decoder and the
// four paper models at p=8, at the production join cap.
func TestBeamKernelMatchesNaiveOnPaperModels(t *testing.T) {
	for _, name := range []string{"gptdeep:2", "alexnet", "inceptionv3", "rnnlm", "transformer"} {
		t.Run(name, func(t *testing.T) {
			m := paperModel(t, name, 8)
			sq := seq.Generate(m.G)
			for _, width := range []int{1, 8} {
				requireBeamMatchesNaive(t, fmt.Sprintf("W=%d", width), m, sq, width, beamJoinCap(width))
			}
		})
	}
}

// The frontier primitive on its own: whatever the stream's order — random,
// ascending, descending, all costs equal — and however many compactions it
// forces, the survivors are the k smallest in order and cut reports whether
// anything was dropped.
func TestBeamFrontierKeepsTheKSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		k := []int{1, 2, 5, 64}[trial%4]
		n := rng.Intn(12 * k)
		all := make([]beamPartial, n)
		for j := range all {
			all[j] = beamPartial{flat: int64(j / 3), c: int32(j % 3), cost: float64(rng.Intn(1 + trial%7))}
		}
		rng.Shuffle(n, func(a, b int) { all[a], all[b] = all[b], all[a] })
		switch trial % 5 {
		case 1:
			slices.SortFunc(all, byCost)
		case 2:
			slices.SortFunc(all, func(a, b beamPartial) int { return byCost(b, a) })
		}
		var f beamFrontier
		f.reset(k)
		for _, p := range all {
			f.push(p)
		}
		got := slices.Clone(f.sorted())
		slices.SortFunc(all, byCost)
		if want := all[:min(n, k)]; !slices.Equal(got, want) || f.cut != (n > k) {
			t.Fatalf("trial %d k=%d n=%d: got %v (cut %v), want %v", trial, k, n, got, f.cut, want)
		}
	}
}
