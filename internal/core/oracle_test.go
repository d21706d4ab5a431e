package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pase/internal/cost"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/seq"
)

// oracleMaxWork caps one bucket's work: the entries of the factor it
// produces times the configurations of the vertex it eliminates.
const oracleMaxWork = 50_000_000

// The independent oracle: textbook min-sum bucket elimination (Dechter 1999)
// over the pairwise model, TLRow as unaries and EdgeCost as pairwise terms,
// under its own greedy min-fill ordering, with dense factor tables. It reads
// the model through K, TLRow, Edges and EdgeCost alone and shares nothing
// with the solver: no seq ordering, dependent set, subset, class, quotient or
// bound.

// factor is a dense cost table over scope, first variable fastest.
type factor struct {
	scope []int
	vals  []float64
}

// oracleResult is an optimum found by bucketElimination.
type oracleResult struct {
	cost  float64
	idx   []int
	width int // induced width of the min-fill ordering
}

// bucketElimination returns a minimum of F(G, φ) and a strategy attaining
// it, or an error naming the first bucket whose work exceeds oracleMaxWork;
// the refusal is decided on the ordering, before any table is filled.
func bucketElimination(m *cost.Model) (*oracleResult, error) {
	n := m.G.Len()
	adj := make([]map[int]bool, n)
	for v := range adj {
		adj[v] = map[int]bool{}
	}
	var factors []factor
	for v := 0; v < n; v++ {
		factors = append(factors, factor{scope: []int{v}, vals: m.TLRow(v)})
	}
	for e, uv := range m.Edges() {
		u, v := uv[0], uv[1]
		if u == v {
			vals := make([]float64, m.K(u))
			for c := range vals {
				vals[c] = m.EdgeCost(e, c, c)
			}
			factors = append(factors, factor{scope: []int{u}, vals: vals})
			continue
		}
		vals := make([]float64, m.K(u)*m.K(v))
		for cv := 0; cv < m.K(v); cv++ {
			for cu := 0; cu < m.K(u); cu++ {
				vals[cu+cv*m.K(u)] = m.EdgeCost(e, cu, cv)
			}
		}
		factors = append(factors, factor{scope: []int{u, v}, vals: vals})
		adj[u][v], adj[v][u] = true, true
	}

	order, width, err := minFillOrder(m, adj)
	if err != nil {
		return nil, err
	}
	rank := make([]int, n)
	for r, v := range order {
		rank[v] = r
	}
	buckets := make([][]factor, n)
	total := 0.0
	place := func(f factor) {
		if len(f.scope) == 0 {
			total += f.vals[0]
			return
		}
		first := f.scope[0]
		for _, u := range f.scope {
			if rank[u] < rank[first] {
				first = u
			}
		}
		buckets[first] = append(buckets[first], f)
	}
	for _, f := range factors {
		place(f)
	}
	args := make([]factor, n) // per vertex: its minimizing configuration over its bucket's scope
	for _, v := range order {
		out, arg := eliminate(m, v, buckets[v])
		buckets[v] = nil
		args[v] = arg
		place(out)
	}

	idx := make([]int, n)
	for r := n - 1; r >= 0; r-- {
		v := order[r]
		flat, stride := 0, 1
		for _, u := range args[v].scope {
			flat += idx[u] * stride
			stride *= m.K(u)
		}
		idx[v] = int(args[v].vals[flat])
	}
	return &oracleResult{cost: total, idx: idx, width: width}, nil
}

// minFillOrder orders the vertices greedily by the fill edges their
// elimination adds to the interaction graph adj (consumed), ties broken by
// fewer neighbours, then by lower vertex. It returns the ordering and its
// induced width, or an error if some bucket's work exceeds oracleMaxWork.
func minFillOrder(m *cost.Model, adj []map[int]bool) ([]int, int, error) {
	n := len(adj)
	done := make([]bool, n)
	order := make([]int, 0, n)
	width := 0
	for len(order) < n {
		best, bestFill := -1, 0
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			fill := 0
			for a := range adj[v] {
				for b := range adj[v] {
					if a < b && !adj[a][b] {
						fill++
					}
				}
			}
			if best < 0 || fill < bestFill || fill == bestFill && len(adj[v]) < len(adj[best]) {
				best, bestFill = v, fill
			}
		}
		v := best
		work := int64(m.K(v))
		for u := range adj[v] {
			if work *= int64(m.K(u)); work > oracleMaxWork {
				return nil, 0, fmt.Errorf("oracle: eliminating vertex %d (%d neighbours) exceeds %d work", v, len(adj[v]), oracleMaxWork)
			}
		}
		width = max(width, len(adj[v]))
		for a := range adj[v] {
			delete(adj[a], v)
			for b := range adj[v] {
				if a != b {
					adj[a][b] = true
				}
			}
		}
		done[v] = true
		order = append(order, v)
	}
	return order, width, nil
}

// eliminate minimizes v out of the sum of its bucket: out(s) = min_x Σ f(s, x)
// over the bucket's other variables s, first (lowest) fastest, and arg(s) is
// the least x attaining it, stored as a float64 in a table of the same scope.
//
// A factor's level is the fastest digit of s it reads. The bucket is summed
// by descending level, and part[l], the sum of the factors of level ≥ l but
// the last, is rebuilt only when a digit of s at or below l has moved.
func eliminate(m *cost.Model, v int, bucket []factor) (out, arg factor) {
	var scope []int
	for _, f := range bucket {
		for _, u := range f.scope {
			if u != v && !slices.Contains(scope, u) {
				scope = append(scope, u)
			}
		}
	}
	slices.Sort(scope)
	levels := len(scope)
	// A term reads its factor at off + x·step for configuration x of v;
	// stride[k] moves off with digit k of s.
	type term struct {
		vals             []float64
		stride           []int
		off, step, level int
	}
	terms := make([]term, len(bucket))
	for i, f := range bucket {
		t := term{vals: f.vals, stride: make([]int, levels), level: levels}
		stride := 1
		for _, u := range f.scope {
			if u == v {
				t.step = stride
			} else {
				k := slices.Index(scope, u)
				t.stride[k], t.level = stride, min(t.level, k)
			}
			stride *= m.K(u)
		}
		terms[i] = t
	}
	slices.SortStableFunc(terms, func(a, b term) int { return b.level - a.level })
	// Some factor reads digit 0 (or s has none), so the last term is of level
	// 0: it is added as the minimum is taken.
	last := &terms[len(terms)-1]

	size := 1
	for _, u := range scope {
		size *= m.K(u)
	}
	out = factor{scope: scope, vals: make([]float64, size)}
	arg = factor{scope: scope, vals: make([]float64, size)}
	part := make([][]float64, levels+2) // part[levels+1] stays zero
	for l := range part {
		part[l] = make([]float64, m.K(v))
	}
	digit := make([]int, levels)
	dirty := levels // part[l] is stale for every l ≤ dirty
	for s := range size {
		j := 0
		for l := dirty; l >= 0; l-- {
			for ; j < len(terms)-1 && terms[j].level > l; j++ {
			}
			p := part[l]
			copy(p, part[l+1])
			for ; j < len(terms)-1 && terms[j].level == l; j++ {
				vals, off, step := terms[j].vals, terms[j].off, terms[j].step
				for x := range p {
					p[x] += vals[off+x*step]
				}
			}
		}
		vals, off, step := last.vals, last.off, last.step
		best, bestCost := 0, math.Inf(1)
		for x, c := range part[0] {
			if c += vals[off+x*step]; x == 0 || c < bestCost {
				best, bestCost = x, c
			}
		}
		out.vals[s], arg.vals[s] = bestCost, float64(best)
		for k := range digit {
			dirty = k
			digit[k]++
			for i := range terms {
				terms[i].off += terms[i].stride[k]
			}
			if digit[k] < m.K(scope[k]) {
				break
			}
			for i := range terms {
				terms[i].off -= terms[i].stride[k] * digit[k]
			}
			digit[k] = 0
		}
	}
	return out, arg
}

// bruteForce enumerates every strategy of a small model: the oracle for
// graphs of a few vertices, exponential in their number.
func bruteForce(m *cost.Model) (*Result, error) {
	n := m.G.Len()
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

// oracleAgrees fails t unless the oracle's optimum and the exact solver's
// agree within 1e-12 relative, and each strategy, re-priced by EvalIdx, lies
// within that tolerance of the other's optimum.
func oracleAgrees(t *testing.T, label string, m *cost.Model, o *oracleResult, res *Result) {
	t.Helper()
	const relTol = 1e-12
	near := func(a, b float64) bool { return a == b || math.Abs(a-b) <= relTol*math.Abs(b) }
	if !near(res.Cost, o.cost) {
		t.Errorf("%s: Solve %.15g, oracle %.15g (rel %.2g)", label, res.Cost, o.cost, math.Abs(res.Cost-o.cost)/o.cost)
	}
	if got := m.EvalIdx(o.idx); !near(got, res.Cost) {
		t.Errorf("%s: the oracle's strategy prices at %.15g, Solve's optimum is %.15g", label, got, res.Cost)
	}
	if got := m.EvalIdx(res.Idx); !near(got, o.cost) {
		t.Errorf("%s: Solve's strategy prices at %.15g, the oracle's optimum is %.15g", label, got, o.cost)
	}
}

// registryCell is one registry graph at one device count.
type registryCell struct {
	name string
	p    int
}

func (c registryCell) String() string { return fmt.Sprintf("%s@%d", c.name, c.p) }

// model builds the cell under its registry policy; "densenet:<blocks>" is
// DenseNet(128, blocks), unrestricted.
func (c registryCell) model(t *testing.T) *cost.Model {
	t.Helper()
	var blocks int
	if _, err := fmt.Sscanf(c.name, "densenet:%d", &blocks); err != nil {
		return paperModel(t, c.name, c.p)
	}
	m, err := cost.NewModel(models.DenseNet(128, blocks), machine.GTX1080Ti(c.p), itspace.EnumPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The exact DP's optimum is the optimum: on the four paper models at p = 4,
// 8 and 32, gptdeep:{3,12} at p = 4 and 8, and DenseNet(128,4) at p = 4, Solve
// over GENERATESEQ agrees with the oracle, and their strategies cross-check.
// DenseNet(128,8) at p = 4 (min-fill width 9) is refused by both. Each cell
// logs the oracle's min-fill induced width beside GENERATESEQ's M.
func TestOracleMatchesSolveOnRegistry(t *testing.T) {
	var cells []registryCell
	for _, name := range []string{"alexnet", "inceptionv3", "rnnlm", "transformer"} {
		for _, p := range []int{4, 8, 32} {
			cells = append(cells, registryCell{name, p})
		}
	}
	for _, name := range []string{"gptdeep:3", "gptdeep:12"} {
		for _, p := range []int{4, 8} {
			cells = append(cells, registryCell{name, p})
		}
	}
	cells = append(cells, registryCell{"densenet:4", 4})
	for _, c := range cells {
		m := c.model(t)
		sq := seq.Generate(m.G)
		o, err := bucketElimination(m)
		if err != nil {
			t.Errorf("%v: %v", c, err)
			continue
		}
		res, err := Solve(context.Background(), m, sq, Options{})
		if err != nil {
			t.Errorf("%v: %v", c, err)
			continue
		}
		oracleAgrees(t, c.String(), m, o, res)
		oracleAgrees(t, c.String()+" eliminated", m, o, solveEliminated(t, m, sq))
		t.Logf("%-16v optimum %.12g  min-fill width %d  GENERATESEQ M %d", c, o.cost, o.width, sq.MaxDepSize())
	}

	refused := registryCell{"densenet:8", 4}
	m := refused.model(t)
	_, oerr := bucketElimination(m)
	_, serr := Solve(context.Background(), m, seq.Generate(m.G), Options{})
	if oerr == nil || !errors.Is(serr, ErrOOM) {
		t.Errorf("%v: oracle %v, Solve %v; want both to refuse", refused, oerr, serr)
	}
	t.Logf("%v refused: %v", refused, oerr)
}

// solveEliminated solves m's eliminated model over sq and returns the result
// with its choices as m's configuration indices.
func solveEliminated(t *testing.T, m *cost.Model, sq *seq.Sequence) *Result {
	t.Helper()
	el, err := cost.Eliminate(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	em := el.Model
	res, err := Solve(context.Background(), em, sq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range res.Strategy {
		if res.Idx[v] = m.IndexOf(v, c); res.Idx[v] < 0 {
			t.Fatalf("eliminated solve chose %v for node %d, not a configuration of the full model", c, v)
		}
	}
	return res
}

// The exact solve over the eliminated model is the full model's: cost bits,
// strategy and depth, on the four paper models and gptdeep:3 at p = 4…64
// (gptdeep:3@64 is refused by both), with table classes still sharing
// repeated blocks.
func TestEliminatedSolveIsTheFullSolve(t *testing.T) {
	for _, name := range []string{"alexnet", "inceptionv3", "rnnlm", "transformer", "gptdeep:3"} {
		for _, p := range []int{4, 8, 16, 32, 64} {
			c := registryCell{name, p}
			m := c.model(t)
			sq := seq.Generate(m.G)
			full, err := Solve(context.Background(), m, sq, Options{})
			if errors.Is(err, ErrOOM) {
				if err := Admit(m, sq, Options{}); !errors.Is(err, ErrOOM) {
					t.Errorf("%v: Solve refused, Admit %v", c, err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := Admit(m, sq, Options{}); err != nil {
				t.Errorf("%v: Solve admitted, Admit %v", c, err)
			}
			el := solveEliminated(t, m, sq)
			if math.Float64bits(el.Cost) != math.Float64bits(full.Cost) || !slices.Equal(el.Idx, full.Idx) {
				t.Errorf("%v: eliminated solve %v %v, full solve %v %v", c, el.Cost, el.Idx, full.Cost, full.Idx)
			}
			if el.Stats.States > full.Stats.States || el.Stats.ModelInfo != full.Stats.ModelInfo {
				t.Errorf("%v: eliminated states %d (full %d), info %+v (full %+v)", c, el.Stats.States, full.Stats.States, el.Stats.ModelInfo, full.Stats.ModelInfo)
			}
			if full.Stats.SharedPositions > 0 && el.Stats.SharedPositions == 0 {
				t.Errorf("%v: the eliminated model shares no table (full: %d positions)", c, full.Stats.SharedPositions)
			}
		}
	}
}

// The oracle against Solve on random layer graphs whose extents include 1
// and 2, so K varies from vertex to vertex down to 1; where the strategy
// space is small, against brute force as well.
func TestOracleMatchesSolveOnRandomGraphs(t *testing.T) {
	const trials = 50
	minK, maxK, width, bruteForced := math.MaxInt, 0, 0, 0
	for trial := range trials {
		rng := rand.New(rand.NewSource(int64(4700 + trial)))
		m := newModel(t, randomLayerGraph(rng, 4+rng.Intn(16), []int64{1, 2, 16, 64}), 8)
		label := fmt.Sprintf("trial %d", trial)
		o, err := bucketElimination(m)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		res, err := Solve(context.Background(), m, seq.Generate(m.G), Options{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		oracleAgrees(t, label, m, o, res)
		strategies := 1
		for v := range m.G.Len() {
			minK, maxK = min(minK, m.K(v)), max(maxK, m.K(v))
			if strategies <= 20000 {
				strategies *= m.K(v)
			}
		}
		width = max(width, o.width)
		if strategies <= 20000 {
			bf, err := bruteForce(m)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(bf.Cost-o.cost) > 1e-12*bf.Cost {
				t.Errorf("%s: oracle %.15g, brute force %.15g", label, o.cost, bf.Cost)
			}
			bruteForced++
		}
	}
	t.Logf("%d trials: K %d..%d, min-fill width up to %d, %d also brute-forced", trials, minK, maxK, width, bruteForced)
	if minK != 1 || bruteForced == 0 {
		t.Errorf("K down to %d, %d trials brute-forced: want 1 and > 0", minK, bruteForced)
	}
}

// The beam's gap brackets the oracle's optimum on every registry graph at
// p = 8: Cost/(1+Gap) <= OPT <= Cost at W = 1 and W = 8, on the full model
// and on the model cost.Eliminate leaves (the one the planner's beam
// searches), both against the full model's optimum; Exact means that optimum.
func TestBeamGapBracketsOracleOnRegistry(t *testing.T) {
	const relTol = 1e-12
	for _, name := range []string{"alexnet", "inceptionv3", "rnnlm", "transformer", "gptdeep:3", "gptdeep:12"} {
		c := registryCell{name, 8}
		m := c.model(t)
		o, err := bucketElimination(m)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		el, err := cost.Eliminate(context.Background(), m, nil)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		for route, mm := range map[string]*cost.Model{"full": m, "eliminated": el.Model} {
			for _, width := range []int{1, 8} {
				br, err := beamFind(mm, BeamOptions{Width: width, GapTarget: -1})
				if err != nil {
					t.Fatalf("%v %s W=%d: %v", c, route, width, err)
				}
				if lower := br.Cost / (1 + br.Gap); lower > o.cost*(1+relTol) || br.Cost < o.cost*(1-relTol) || br.Exact && br.Cost > o.cost*(1+relTol) {
					t.Errorf("%v %s W=%d: beam brackets [%.12g, %.12g] exact=%v, oracle optimum %.12g", c, route, width, lower, br.Cost, br.Exact, o.cost)
				}
			}
		}
	}
}
