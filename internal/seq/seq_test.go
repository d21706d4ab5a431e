package seq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pase/internal/graph"
	"pase/internal/itspace"
)

// The map-based definitions of Section III-B, which the bitset computations
// of Generate and FromOrder and the union-find pass of Children are checked
// against.

// reachableWithin performs the paper's DFS(G, U, v): the set of vertices
// reachable from v through paths confined to U ∪ {v}, over the undirected
// view. v is in the returned set.
func reachableWithin(g *graph.Graph, allowed map[int]bool, v int) map[int]bool {
	res := map[int]bool{v: true}
	stack := []int{v}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(x) {
			if allowed[w] && !res[w] {
				res[w] = true
				stack = append(stack, w)
			}
		}
	}
	return res
}

// connectedSet computes X(i): the vertices of V≤i connected to v(i) through
// paths confined to V≤i (paper Section III-B definition a).
func connectedSet(g *graph.Graph, s *Sequence, i int) map[int]bool {
	allowed := map[int]bool{}
	for j := 0; j <= i; j++ {
		allowed[s.Order[j]] = true
	}
	return reachableWithin(g, allowed, s.Order[i])
}

// dependentSet computes D(i) = N(X(i)) ∩ V>i from the definition, sorted by
// node ID (paper Section III-B definition b).
func dependentSet(g *graph.Graph, s *Sequence, i int) []int {
	x := connectedSet(g, s, i)
	seen := map[int]bool{}
	var dep []int
	for v := range x {
		for _, w := range g.Neighbors(v) {
			if s.Pos[w] > i && !x[w] && !seen[w] {
				seen[w] = true
				dep = append(dep, w)
			}
		}
	}
	sort.Ints(dep)
	return dep
}

// connectedSubsets computes S(i): the vertex sets of the connected components
// of the subgraph induced by X(i) − {v(i)} within V<i (paper Section III-B
// definition c). Each subset is returned with its members sorted by position;
// subsets are ordered by their maximal position (the j used for table
// lookups in recurrence 4).
func connectedSubsets(g *graph.Graph, s *Sequence, i int) [][]int {
	x := connectedSet(g, s, i)
	delete(x, s.Order[i])
	allowed := map[int]bool{}
	for v := range x {
		if s.Pos[v] < i {
			allowed[v] = true
		}
	}
	visited := map[int]bool{}
	var subsets [][]int
	for j := 0; j < i; j++ { // deterministic scan by position
		v := s.Order[j]
		if !allowed[v] || visited[v] {
			continue
		}
		comp := reachableWithin(g, allowed, v)
		var members []int
		for w := range comp {
			visited[w] = true
			members = append(members, w)
		}
		sort.Slice(members, func(a, b int) bool { return s.Pos[members[a]] < s.Pos[members[b]] })
		subsets = append(subsets, members)
	}
	sort.Slice(subsets, func(a, b int) bool {
		return s.Pos[subsets[a][len(subsets[a])-1]] < s.Pos[subsets[b][len(subsets[b])-1]]
	})
	return subsets
}

// node returns a minimal valid node for structural tests.
func node() *graph.Node {
	return &graph.Node{
		Space:  itspace.Space{{Name: "x", Size: 2}},
		Output: graph.TensorRef{Map: []int{0}},
	}
}

// build constructs a graph from an edge list over n nodes, wiring input refs
// to match in-degrees.
func build(n int, edges [][2]int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(node())
	}
	for _, e := range edges {
		v := g.Nodes[e[1]]
		v.Inputs = append(v.Inputs, graph.TensorRef{Map: []int{0}})
		g.AddEdge(g.Nodes[e[0]], v)
	}
	return g
}

// paperToyGraph reproduces the paper's Fig. 2 example: 9 vertices where the
// ordering can shrink D(5) from 3 (breadth-first) to 1.
// Topology (undirected view): 1-2, 2-5, 3-5, 5-8, 4-8, 6-7, 7-8, 8-9.
func paperToyGraph() *graph.Graph {
	return build(9, [][2]int{
		{0, 1}, {1, 4}, {2, 4}, {4, 7}, {3, 7}, {5, 6}, {6, 7}, {7, 8},
	})
}

func TestGenerateCoversAllOnce(t *testing.T) {
	g := paperToyGraph()
	s := Generate(g)
	if len(s.Order) != 9 {
		t.Fatalf("order len %d", len(s.Order))
	}
	seen := map[int]bool{}
	for i, v := range s.Order {
		if seen[v] {
			t.Fatalf("duplicate node %d", v)
		}
		seen[v] = true
		if s.Pos[v] != i {
			t.Fatalf("Pos[%d]=%d, want %d", v, s.Pos[v], i)
		}
	}
}

func TestTheorem2IncrementalEqualsDefinition(t *testing.T) {
	g := paperToyGraph()
	s := Generate(g)
	for i := range s.Order {
		want := dependentSet(g, s, i)
		got := append([]int(nil), s.Dep[i]...)
		sortInts(got)
		if !equalInts(got, want) {
			t.Fatalf("position %d (node %d): incremental %v, definition %v",
				i, s.Order[i], got, want)
		}
	}
}

func TestTheorem2Quick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		var edges [][2]int
		// Random connected DAG: each node i>0 gets an edge from some j<i.
		for i := 1; i < n; i++ {
			edges = append(edges, [2]int{rng.Intn(i), i})
		}
		// Sprinkle extra forward edges.
		for k := 0; k < rng.Intn(n); k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a < b {
				edges = append(edges, [2]int{a, b})
			}
		}
		g := build(n, edges)
		s := Generate(g)
		for i := range s.Order {
			want := dependentSet(g, s, i)
			got := append([]int(nil), s.Dep[i]...)
			sortInts(got)
			if !equalInts(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateBeatsBFSOnToyGraph(t *testing.T) {
	g := paperToyGraph()
	gen := Generate(g)
	bfs := BFS(g)
	if gen.MaxDepSize() > bfs.MaxDepSize() {
		t.Fatalf("GENERATESEQ M=%d worse than BFS M=%d", gen.MaxDepSize(), bfs.MaxDepSize())
	}
}

func TestPathGraphDependentSetsAreSmall(t *testing.T) {
	// AlexNet-like path graph: both orderings give |D| ≤ 1 (paper Table I
	// discussion: BF and GENERATESEQ behave alike on AlexNet).
	var edges [][2]int
	for i := 0; i < 9; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	g := build(10, edges)
	if m := Generate(g).MaxDepSize(); m > 1 {
		t.Fatalf("GENERATESEQ path M=%d", m)
	}
	if m := BFS(g).MaxDepSize(); m > 1 {
		t.Fatalf("BFS path M=%d", m)
	}
}

func TestStarGraphBFSBlowsUp(t *testing.T) {
	// Hub-and-spoke with a chain behind each spoke: BFS from the hub keeps
	// all spokes in DB while GENERATESEQ finishes each chain first.
	var edges [][2]int
	n := 1
	for s := 0; s < 5; s++ {
		chain := []int{0}
		for k := 0; k < 3; k++ {
			chain = append(chain, n)
			n++
		}
		for i := 0; i+1 < len(chain); i++ {
			edges = append(edges, [2]int{chain[i], chain[i+1]})
		}
	}
	g := build(n, edges)
	gen := Generate(g)
	bfs := FromOrder(g, append([]int{0}, seqInts(1, n)...))
	if gen.MaxDepSize() >= bfs.MaxDepSize() {
		t.Fatalf("GENERATESEQ M=%d not better than hub-first M=%d",
			gen.MaxDepSize(), bfs.MaxDepSize())
	}
}

// randomConnectedGraph builds a random connected DAG: each node i>0 gets an
// edge from some j<i, plus sprinkled extra forward edges.
func randomConnectedGraph(rng *rand.Rand) *graph.Graph {
	n := 3 + rng.Intn(12)
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{rng.Intn(i), i})
	}
	for k := 0; k < rng.Intn(n); k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a < b {
			edges = append(edges, [2]int{a, b})
		}
	}
	return build(n, edges)
}

// FromOrder computes dependent sets with bitset reachability; they must
// equal the map-based definitional oracle on arbitrary orderings.
func TestFromOrderMatchesOracleQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng)
		s := FromOrder(g, rng.Perm(g.Len()))
		for i := range s.Order {
			want := dependentSet(g, s, i)
			got := append([]int(nil), s.Dep[i]...)
			sortInts(got)
			if !equalInts(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Children must name, at every position, the last member of each of the
// definitional oracle's subsets, in the oracle's order (by that last
// position), under GENERATESEQ, breadth-first and random orderings of graphs
// with parallel edges.
func TestChildrenMatchOracleQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng)
		for _, s := range []*Sequence{Generate(g), BFS(g), FromOrder(g, rng.Perm(g.Len()))} {
			children := Children(g, s)
			for i := range s.Order {
				want := connectedSubsets(g, s, i)
				if len(children[i]) != len(want) {
					return false
				}
				for k, sub := range want {
					if children[i][k] != s.Pos[sub[len(sub)-1]] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The invariant the DP kernel's table layout rests on: under any ordering,
// every child j of position i has v(i) as the first member of D(j) — v(i) is
// adjacent to the child's subset (a component of X(i) − {v(i)} is maximal)
// and every other member of D(j) comes after i — so a child table is read as
// rows over v(i)'s configurations and never as a constant.
func TestSubsetsDependOnTheirReaderFirstQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rng)
		for _, s := range []*Sequence{Generate(g), BFS(g), FromOrder(g, rng.Perm(g.Len()))} {
			for i, children := range Children(g, s) {
				for _, j := range children {
					if dj := s.Dep[j]; len(dj) == 0 || dj[0] != s.Order[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	g := paperToyGraph()
	st := Summarize(Generate(g))
	if st.MaxDep < 0 || st.MaxState != st.MaxDep+1 {
		t.Fatalf("stats inconsistent: %+v", st)
	}
	total := 0
	for _, c := range st.DepHistogram {
		total += c
	}
	if total != g.Len() {
		t.Fatalf("histogram covers %d of %d", total, g.Len())
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func seqInts(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
