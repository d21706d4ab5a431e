// Package graph represents DNN computation graphs as defined in Section II of
// the PaSE paper: weakly connected directed graphs whose nodes are layers
// (each with an iteration space) and whose edges carry the tensors flowing
// between layers.
package graph

import (
	"fmt"
	"slices"
	"sort"

	"pase/internal/bitset"
	"pase/internal/canon"
	"pase/internal/itspace"
)

// OpType classifies a node's layer kind. It selects cost-model details
// (FLOPs-per-point defaults, halo behaviour) and is reported in Table II
// style output.
type OpType int

// Supported layer kinds.
const (
	OpGeneric OpType = iota
	OpConv2D
	OpPool
	OpFC
	OpGEMM
	OpLSTM
	OpEmbedding
	OpSoftmax
	OpLayerNorm
	OpConcat
	OpEltwise
	OpAttention
)

var opNames = map[OpType]string{
	OpGeneric:   "generic",
	OpConv2D:    "conv2d",
	OpPool:      "pool",
	OpFC:        "fc",
	OpGEMM:      "gemm",
	OpLSTM:      "lstm",
	OpEmbedding: "embedding",
	OpSoftmax:   "softmax",
	OpLayerNorm: "layernorm",
	OpConcat:    "concat",
	OpEltwise:   "eltwise",
	OpAttention: "attention",
}

func (o OpType) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// ParseOp resolves an op-kind name as printed by OpType.String ("conv2d",
// "fc", ...) back to its OpType — the inverse the declarative spec pipeline
// lowers node kinds through.
func ParseOp(name string) (OpType, bool) {
	for op, s := range opNames {
		if s == name {
			return op, true
		}
	}
	return 0, false
}

// OpNames returns every supported op-kind name in sorted order, for
// diagnostics listing the valid kinds.
func OpNames() []string {
	out := make([]string, 0, len(opNames))
	for _, s := range opNames {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TensorRef describes how a node reads or writes a tensor: Map[t] is the
// iteration-space dimension that indexes tensor dimension t. Iteration dims
// absent from Map are, for an output, reduction dims (splitting them leaves
// partial sums needing an all-reduce) and, for a parameter, replication dims
// (splitting them replicates the parameter and its gradient must be
// all-reduced during the update phase — the classic data-parallel cost).
type TensorRef struct {
	// Map[t] gives the iteration dim for tensor dim t.
	Map []int
	// Offset[t], when non-nil, is the starting coordinate of this reference
	// within iteration dim Map[t]'s extent. Used by concat inputs, which
	// read/write a sub-range of the concatenated dimension.
	Offset []int64
	// Size[t], when non-nil, overrides the tensor extent along dim t
	// (defaults to the full extent of iteration dim Map[t]).
	Size []int64
	// Scale multiplies the tensor's byte volume (e.g. 4 for an LSTM's four
	// gate weight matrices folded into one logical parameter). Zero means 1.
	Scale float64
	// Param marks parameter (weight) tensors, which live on devices across
	// steps and whose gradients are all-reduced, as opposed to activations,
	// which flow along edges.
	Param bool
}

// EffScale returns the byte-volume multiplier (1 when unset).
func (r TensorRef) EffScale() float64 {
	if r.Scale == 0 {
		return 1
	}
	return r.Scale
}

// Extent returns the extent of tensor dim t given the node's space.
func (r TensorRef) Extent(s itspace.Space, t int) int64 {
	if r.Size != nil && r.Size[t] > 0 {
		return r.Size[t]
	}
	return s[r.Map[t]].Size
}

// Node is a layer in the computation graph.
type Node struct {
	ID    int
	Name  string
	Op    OpType
	Space itspace.Space

	// Inputs holds the activation tensor references in the order of the
	// node's incoming edges (edge k of In() corresponds to Inputs[k]).
	Inputs []TensorRef
	// Params holds parameter (weight) tensor references.
	Params []TensorRef
	// Output is the node's single output tensor reference; every out-edge
	// carries this tensor.
	Output TensorRef

	// FlopsPerPoint is the floating-point work per iteration-space point in
	// the forward pass (2 for a multiply-accumulate). The cost model
	// multiplies by a forward+backward factor.
	FlopsPerPoint float64
	// Halo[i] is the per-boundary halo width of iteration dim i (conv
	// spatial dims: kernel-1 elements must be exchanged when split).
	Halo []int64
	// NormDims lists iteration dims along which a normalization reduction
	// (softmax denominator, layer-norm moments) crosses device boundaries
	// when split.
	NormDims []int
}

// Graph is a weakly connected directed computation graph.
type Graph struct {
	Nodes []*Node
	// edges
	out [][]int // out[u] = node IDs v with (u,v) in E
	in  [][]int // in[v] = node IDs u with (u,v) in E
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode appends a node, assigning its ID, and returns it.
func (g *Graph) AddNode(n *Node) *Node {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return n
}

// AddEdge adds the directed edge (u, v): v consumes u's output tensor as its
// next activation input. The position of u in In(v) identifies which entry of
// v.Inputs describes the access.
func (g *Graph) AddEdge(u, v *Node) {
	g.out[u.ID] = append(g.out[u.ID], v.ID)
	g.in[v.ID] = append(g.in[v.ID], u.ID)
}

// Len returns the node count.
func (g *Graph) Len() int { return len(g.Nodes) }

// In returns the predecessor IDs of node id.
func (g *Graph) In(id int) []int { return g.in[id] }

// Out returns the successor IDs of node id.
func (g *Graph) Out(id int) []int { return g.out[id] }

// InputIndex returns which activation-input slot of node v the edge (u, v)
// feeds, or -1 when no such edge exists.
func (g *Graph) InputIndex(u, v int) int {
	for k, w := range g.in[v] {
		if w == u {
			return k
		}
	}
	return -1
}

// Neighbors returns the sorted union of predecessors and successors of id
// (the paper's N(v)); a node appearing as both is listed once.
func (g *Graph) Neighbors(id int) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range g.out[id] {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, u := range g.in[id] {
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	sort.Ints(out)
	return out
}

// Degree returns |N(id)|.
func (g *Graph) Degree(id int) int { return len(g.Neighbors(id)) }

// Edges returns every directed edge as (u, v) pairs in deterministic order.
func (g *Graph) Edges() [][2]int {
	var es [][2]int
	for u := range g.Nodes {
		for _, v := range g.out[u] {
			es = append(es, [2]int{u, v})
		}
	}
	return es
}

// BFSOrder returns node IDs in breadth-first order over the undirected view,
// starting from the lowest-ID source. This is the "BF" ordering of the
// paper's Section III-A baseline.
func (g *Graph) BFSOrder() []int {
	visited := make([]bool, g.Len())
	var order []int
	for start := 0; start < g.Len(); start++ {
		if visited[start] {
			continue
		}
		q := []int{start}
		visited[start] = true
		for len(q) > 0 {
			v := q[0]
			q = q[1:]
			order = append(order, v)
			for _, w := range g.Neighbors(v) {
				if !visited[w] {
					visited[w] = true
					q = append(q, w)
				}
			}
		}
	}
	return order
}

// AdjacencyBits returns the undirected neighbour set N(v) of every node as a
// word-packed bitset — the representation the ordering hot paths
// (seq.Generate, seq.FromOrder) merge instead of the sorted Neighbors slices.
func (g *Graph) AdjacencyBits() []bitset.Set {
	adj := make([]bitset.Set, g.Len())
	for v := range adj {
		adj[v] = bitset.New(g.Len())
	}
	for u := range g.Nodes {
		for _, v := range g.out[u] {
			adj[u].Add(v)
			adj[v].Add(u)
		}
	}
	return adj
}

// WeaklyConnected reports whether the graph is weakly connected (a
// requirement of the paper's problem definition).
func (g *Graph) WeaklyConnected() bool {
	if g.Len() == 0 {
		return true
	}
	seen := make([]bool, g.Len())
	seen[0] = true
	stack, reached := append(make([]int, 0, g.Len()), 0), 1
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range [2][]int{g.out[x], g.in[x]} {
			for _, w := range nb {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
					reached++
				}
			}
		}
	}
	return reached == g.Len()
}

// DegreeHistogram returns, for each degree value, how many nodes have it.
// Used to reproduce the paper's Fig. 5 observation (InceptionV3: 206 of 218
// nodes with degree < 5).
func (g *Graph) DegreeHistogram() map[int]int {
	h := map[int]int{}
	for v := range g.Nodes {
		h[g.Degree(v)]++
	}
	return h
}

// CanonicalEncode writes the ref's canonical form: map, window, scale, and
// parameter-ness — every field the cost model reads.
func (r TensorRef) CanonicalEncode(w *canon.Writer) {
	w.Ints(r.Map)
	w.I64s(r.Offset)
	w.I64s(r.Size)
	w.F64(r.EffScale())
	w.Bool(r.Param)
}

// CanonicalEncodeContent writes the node's cost-relevant content — op kind,
// iteration space, FLOPs density, halos, norm dims, and every tensor
// reference — WITHOUT the node's identity (ID, Name). Two nodes with equal
// content encodings are cost-indistinguishable: they enumerate the same
// configurations and price every layer term identically, which is what the
// cost model's structural sharing keys on (a Transformer's six encoder
// layers collapse to one content class). No leading label is emitted so that
// Graph.CanonicalEncode's byte stream — Name followed by content — is
// unchanged from before this method was split out.
func (n *Node) CanonicalEncodeContent(w *canon.Writer) {
	w.Int(int(n.Op))
	n.Space.CanonicalEncode(w)
	w.F64(n.FlopsPerPoint)
	w.I64s(n.Halo)
	w.Ints(n.NormDims)
	w.Len(len(n.Inputs))
	for _, r := range n.Inputs {
		r.CanonicalEncode(w)
	}
	w.Len(len(n.Params))
	for _, r := range n.Params {
		r.CanonicalEncode(w)
	}
	n.Output.CanonicalEncode(w)
}

// CanonicalEncode writes the graph's canonical form for request
// fingerprinting: every node in ID order with its full cost-relevant content
// (op, iteration space, tensor references, FLOPs density, halos, norm dims),
// then every edge as each consumer's in-edge list in input-slot order.
//
// Encoding edges via in-lists makes the fingerprint independent of the order
// out-edges were added in (out-edge order carries no semantics — every
// out-edge ships the same output tensor — while in-edge order is semantic: it
// matches Inputs positionally). Two graphs built by adding the same fan-out
// edges in different orders therefore hash identically. Node IDs themselves
// are part of the canonical form: they are the strategy's addressing scheme.
func (g *Graph) CanonicalEncode(w *canon.Writer) {
	w.Label("graph.Graph")
	w.Len(g.Len())
	for _, n := range g.Nodes {
		w.Str(n.Name)
		n.CanonicalEncodeContent(w)
	}
	w.Label("edges")
	for v := range g.Nodes {
		w.Ints(g.in[v])
	}
}

// Fingerprint returns the graph's canonical fingerprint.
func (g *Graph) Fingerprint() canon.Fingerprint {
	w := canon.NewWriter()
	g.CanonicalEncode(w)
	return w.Sum()
}

// Validate checks structural invariants: space validity, input arity matching
// in-edges, no self-loops, well-formed tensor refs, weak connectivity.
func (g *Graph) Validate() error {
	for _, n := range g.Nodes {
		if err := n.Space.Validate(); err != nil {
			return fmt.Errorf("node %d (%s): %w", n.ID, n.Name, err)
		}
		if len(g.in[n.ID]) != len(n.Inputs) {
			return fmt.Errorf("node %d (%s): %d in-edges but %d input refs",
				n.ID, n.Name, len(g.in[n.ID]), len(n.Inputs))
		}
		if slices.Contains(g.in[n.ID], n.ID) {
			return fmt.Errorf("node %d (%s): self-loop", n.ID, n.Name)
		}
		ri := 0 // refs are numbered output, inputs, params
		for _, refs := range [3][]TensorRef{{n.Output}, n.Inputs, n.Params} {
			for _, r := range refs {
				for t, d := range r.Map {
					if d < 0 || d >= len(n.Space) {
						return fmt.Errorf("node %d (%s): ref %d tensor dim %d maps to invalid iter dim %d",
							n.ID, n.Name, ri, t, d)
					}
				}
				if r.Offset != nil && len(r.Offset) != len(r.Map) {
					return fmt.Errorf("node %d (%s): ref %d offset arity mismatch", n.ID, n.Name, ri)
				}
				if r.Size != nil && len(r.Size) != len(r.Map) {
					return fmt.Errorf("node %d (%s): ref %d size arity mismatch", n.ID, n.Name, ri)
				}
				ri++
			}
		}
		if n.Halo != nil && len(n.Halo) != len(n.Space) {
			return fmt.Errorf("node %d (%s): halo arity mismatch", n.ID, n.Name)
		}
		for _, d := range n.NormDims {
			if d < 0 || d >= len(n.Space) {
				return fmt.Errorf("node %d (%s): invalid norm dim %d", n.ID, n.Name, d)
			}
		}
	}
	if !g.WeaklyConnected() {
		return fmt.Errorf("graph: not weakly connected")
	}
	return nil
}

// Strategy maps node ID to its chosen parallelization configuration — the
// paper's φ.
type Strategy []itspace.Config

// Clone deep-copies the strategy.
func (s Strategy) Clone() Strategy {
	out := make(Strategy, len(s))
	for i, c := range s {
		out[i] = c.Clone()
	}
	return out
}

// Validate checks that the strategy assigns a valid configuration to every
// node of the graph for p devices.
func (s Strategy) Validate(g *Graph, p int) error {
	if len(s) != g.Len() {
		return fmt.Errorf("strategy covers %d nodes, graph has %d", len(s), g.Len())
	}
	for _, n := range g.Nodes {
		if err := s[n.ID].ValidFor(n.Space, p); err != nil {
			return fmt.Errorf("node %d (%s): %w", n.ID, n.Name, err)
		}
	}
	return nil
}
