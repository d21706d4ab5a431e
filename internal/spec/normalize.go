package spec

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
)

// opAliases maps accepted alternative kind spellings to the canonical op
// name, so cosmetic naming differences ("dense" vs "fc") cannot produce
// distinct fingerprints.
var opAliases = map[string]string{
	"conv":           "conv2d",
	"convolution":    "conv2d",
	"dense":          "fc",
	"linear":         "fc",
	"fullyconnected": "fc",
	"matmul":         "gemm",
	"norm":           "layernorm",
	"add":            "eltwise",
}

// Normalize semantically validates the file and lowers it to the canonical
// IR: op aliases resolved, empty optional lists collapsed, nodes renumbered
// into the canonical topological order, edges materialized in consumer-slot
// order, machine and policy lowered to their internal forms. Every problem
// found is reported (as an *Error carrying all diagnostics), not just the
// first.
func (f *File) Normalize() (*IR, error) {
	n := &normalizer{f: f}
	ir := n.run()
	if len(n.diags) > 0 {
		return nil, &Error{Diags: n.diags}
	}
	return ir, nil
}

type normalizer struct {
	f     *File
	diags []Diagnostic
}

func (n *normalizer) errf(path, format string, args ...any) {
	n.diags = append(n.diags, Diagnostic{Path: path, Msg: fmt.Sprintf(format, args...)})
}

func (n *normalizer) run() *IR {
	f := n.f
	if f.Version != Version {
		n.errf("version", "unsupported version %q (want %q)", f.Version, Version)
	}

	spec := n.machine()
	pol := n.policy()

	if len(f.Nodes) == 0 {
		n.errf("nodes", "must be non-empty")
		return nil
	}

	byName, ids := n.checkNodes()
	inEdge, edgesOK := n.checkEdges(byName)
	order := n.canonicalOrder(byName, ids, inEdge, edgesOK)

	if len(n.diags) > 0 {
		return nil
	}
	g := n.build(order, inEdge)
	if g == nil {
		return nil
	}
	return &IR{Name: f.Name, Batch: f.Batch, G: g, Machine: spec, Policy: pol}
}

// checkNodes validates every node in isolation and returns the name → node
// index map edges resolve through and, when every node declares a valid id,
// the node indices in id order (nil otherwise).
func (n *normalizer) checkNodes() (map[string]int, []int) {
	f := n.f
	byName := make(map[string]int, len(f.Nodes))
	withID := 0
	seenID := map[int]int{}
	for i, nd := range f.Nodes {
		path := elem("nodes", i)
		if nd.Name == "" {
			n.errf(child(path, "name"), "must be non-empty")
		} else if j, dup := byName[nd.Name]; dup {
			n.errf(child(path, "name"), "duplicate node name %q (first declared at nodes[%d])", nd.Name, j)
		} else {
			byName[nd.Name] = i
		}

		n.resolveOp(path, nd.Op)

		if len(nd.Dims) == 0 {
			n.errf(child(path, "dims"), "must be non-empty")
		}
		for di, d := range nd.Dims {
			dpath := elem(child(path, "dims"), di)
			if d.Name == "" {
				n.errf(child(dpath, "name"), "must be non-empty")
			}
			if d.Size <= 0 {
				n.errf(child(dpath, "size"), "must be > 0, got %d", d.Size)
			}
		}

		if math.IsNaN(nd.FlopsPerPoint) || math.IsInf(nd.FlopsPerPoint, 0) || nd.FlopsPerPoint < 0 {
			n.errf(child(path, "flops_per_point"), "must be finite and >= 0, got %v", nd.FlopsPerPoint)
		}
		if len(nd.Halo) != 0 && len(nd.Halo) != len(nd.Dims) {
			n.errf(child(path, "halo"), "has %d entries, want one per dim (%d)", len(nd.Halo), len(nd.Dims))
		}
		for hi, h := range nd.Halo {
			if h < 0 {
				n.errf(elem(child(path, "halo"), hi), "must be >= 0, got %d", h)
			}
		}
		for ni, d := range nd.NormDims {
			if d < 0 || d >= len(nd.Dims) {
				n.errf(elem(child(path, "norm_dims"), ni), "dim index %d out of range (node has %d dims)", d, len(nd.Dims))
			}
		}

		for ri, r := range nd.Inputs {
			n.checkRef(elem(child(path, "inputs"), ri), r, len(nd.Dims))
		}
		for ri, r := range nd.Params {
			n.checkRef(elem(child(path, "params"), ri), r, len(nd.Dims))
		}
		if nd.Output != nil {
			n.checkRef(child(path, "output"), *nd.Output, len(nd.Dims))
		} else {
			n.errf(child(path, "output"), "missing required field")
		}

		if nd.ID != nil {
			withID++
			id := *nd.ID
			if id < 0 || id >= len(f.Nodes) {
				n.errf(child(path, "id"), "must be in [0, %d), got %d", len(f.Nodes), id)
			} else if j, dup := seenID[id]; dup {
				n.errf(child(path, "id"), "duplicate id %d (first declared at nodes[%d])", id, j)
			} else {
				seenID[id] = i
			}
		}
	}
	if withID != 0 && withID != len(f.Nodes) {
		n.errf("nodes", "node ids are all-or-none: %d of %d nodes declare an id", withID, len(f.Nodes))
	}
	if len(seenID) != len(f.Nodes) {
		return byName, nil
	}
	ids := make([]int, len(f.Nodes))
	for id, i := range seenID {
		ids[id] = i
	}
	return byName, ids
}

// resolveOp lowers a kind name through the alias table to an OpType.
func (n *normalizer) resolveOp(path, op string) (graph.OpType, bool) {
	name := strings.ToLower(strings.TrimSpace(op))
	if canonical, ok := opAliases[name]; ok {
		name = canonical
	}
	ot, ok := graph.ParseOp(name)
	if !ok {
		n.errf(child(path, "op"), "unknown op %q (want one of %s)", op, strings.Join(graph.OpNames(), ", "))
		return 0, false
	}
	return ot, true
}

func (n *normalizer) checkRef(path string, r Ref, dims int) {
	for t, d := range r.Map {
		if d < 0 || d >= dims {
			n.errf(elem(child(path, "map"), t), "iteration dim %d out of range (node has %d dims)", d, dims)
		}
	}
	if len(r.Offset) != 0 && len(r.Offset) != len(r.Map) {
		n.errf(child(path, "offset"), "has %d entries, want one per map entry (%d)", len(r.Offset), len(r.Map))
	}
	for t, o := range r.Offset {
		if o < 0 {
			n.errf(elem(child(path, "offset"), t), "must be >= 0, got %d", o)
		}
	}
	if len(r.Size) != 0 && len(r.Size) != len(r.Map) {
		n.errf(child(path, "size"), "has %d entries, want one per map entry (%d)", len(r.Size), len(r.Map))
	}
	for t, s := range r.Size {
		if s < 0 {
			n.errf(elem(child(path, "size"), t), "must be >= 0, got %d (0 means the full dim extent)", s)
		}
	}
	if math.IsNaN(r.Scale) || math.IsInf(r.Scale, 0) || r.Scale < 0 {
		n.errf(child(path, "scale"), "must be finite and >= 0, got %v", r.Scale)
	}
}

// checkEdges resolves every edge by name and returns, per node, its in-edges
// as inEdge[consumer][slot] = producer (spec-node indices). edgesOK reports
// whether the wiring resolved cleanly enough for ordering to be meaningful.
func (n *normalizer) checkEdges(byName map[string]int) ([][]int, bool) {
	f := n.f
	inEdge := make([][]int, len(f.Nodes))
	for i, nd := range f.Nodes {
		inEdge[i] = make([]int, len(nd.Inputs))
		for k := range inEdge[i] {
			inEdge[i][k] = -1
		}
	}
	ok := true
	firstEdge := map[[2]int]int{} // (consumer, slot) → edge index first wired
	for k, e := range f.Edges {
		path := elem("edges", k)
		from, fok := byName[e.From]
		if !fok {
			n.errf(child(path, "from"), "unknown node %q", e.From)
			ok = false
		}
		to, tok := byName[e.To]
		if !tok {
			n.errf(child(path, "to"), "unknown node %q", e.To)
			ok = false
		}
		if !fok || !tok {
			continue
		}
		if from == to {
			n.errf(path, "self-loop on %q", e.From)
			ok = false
			continue
		}
		if e.Slot < 0 || e.Slot >= len(inEdge[to]) {
			n.errf(child(path, "slot"), "slot %d out of range (node %q declares %d inputs)", e.Slot, e.To, len(inEdge[to]))
			ok = false
			continue
		}
		if j, dup := firstEdge[[2]int{to, e.Slot}]; dup {
			n.errf(path, "duplicate edge into %q slot %d (first wired at edges[%d])", e.To, e.Slot, j)
			ok = false
			continue
		}
		firstEdge[[2]int{to, e.Slot}] = k
		inEdge[to][e.Slot] = from
	}
	for i, nd := range f.Nodes {
		for k, from := range inEdge[i] {
			if from < 0 {
				n.errf(child(elem("nodes", i), "inputs"),
					"input slot %d of %q has no edge feeding it (%d inputs declared)", k, nd.Name, len(nd.Inputs))
				ok = false
			}
		}
	}
	return inEdge, ok
}

// canonicalOrder returns the spec-node indices in canonical order: the
// declared id order when ids are explicit (checking every edge runs forward
// along it), otherwise the lexicographically least topological order by node
// name. Returns nil when ordering is impossible (cycle, or earlier errors
// made the wiring meaningless). An order that comes with diagnostics is
// returned all the same: run discards it.
func (n *normalizer) canonicalOrder(byName map[string]int, ids []int, inEdge [][]int, edgesOK bool) []int {
	f := n.f
	if !edgesOK {
		return nil
	}

	explicit := true
	for _, nd := range f.Nodes {
		if nd.ID == nil {
			explicit = false
			break
		}
	}
	if explicit {
		// checkNodes refused an id (range or duplicate) when ids is nil.
		if ids == nil {
			return nil
		}
		for k, e := range f.Edges {
			from, to := *f.Nodes[byName[e.From]].ID, *f.Nodes[byName[e.To]].ID
			if from >= to {
				n.errf(elem("edges", k), "runs against the declared id order (%q id=%d → %q id=%d; ids must be a topological order)",
					e.From, from, e.To, to)
			}
		}
		return ids
	}

	// Kahn's algorithm, always emitting the ready node with the
	// lexicographically least name: deterministic, so the same document —
	// however its node array is permuted — always gets the same numbering.
	indeg := make([]int, len(f.Nodes))
	out := make([][]int, len(f.Nodes))
	for to, ins := range inEdge {
		for _, from := range ins {
			indeg[to]++
			out[from] = append(out[from], to)
		}
	}
	emitted := make([]bool, len(f.Nodes))
	order := make([]int, 0, len(f.Nodes))
	for len(order) < len(f.Nodes) {
		pick := -1
		for i := range f.Nodes {
			if emitted[i] || indeg[i] != 0 {
				continue
			}
			if pick < 0 || f.Nodes[i].Name < f.Nodes[pick].Name {
				pick = i
			}
		}
		if pick < 0 {
			var cyc []string
			for i := range f.Nodes {
				if !emitted[i] {
					cyc = append(cyc, f.Nodes[i].Name)
				}
			}
			sort.Strings(cyc)
			n.errf("edges", "graph has a cycle involving %s", strings.Join(cyc, ", "))
			return nil
		}
		emitted[pick] = true
		order = append(order, pick)
		for _, to := range out[pick] {
			indeg[to]--
		}
	}
	return order
}

// build lowers the validated file into a graph.Graph: nodes added in
// canonical order, and each consumer's in-edges wired in slot order as its
// node is reached — reproducing exactly the in/out adjacency-list orders a
// programmatic builder produces, so an exported registry model round-trips
// to a byte-identical canonical encoding.
func (n *normalizer) build(order []int, inEdge [][]int) *graph.Graph {
	f := n.f
	g := graph.New()
	built := make([]*graph.Node, len(f.Nodes))
	for _, i := range order {
		nd := f.Nodes[i]
		op, _ := n.resolveOp(elem("nodes", i), nd.Op)
		space := make(itspace.Space, len(nd.Dims))
		for di, d := range nd.Dims {
			space[di] = itspace.Dim{Name: d.Name, Size: d.Size}
		}
		gn := &graph.Node{
			Name:          nd.Name,
			Op:            op,
			Space:         space,
			FlopsPerPoint: nd.FlopsPerPoint,
			Halo:          nilIfEmptyI64(nd.Halo),
			NormDims:      nilIfEmptyInt(nd.NormDims),
			Output:        lowerRef(*nd.Output, false),
		}
		if len(nd.Inputs) > 0 {
			gn.Inputs = make([]graph.TensorRef, len(nd.Inputs))
			for k, r := range nd.Inputs {
				gn.Inputs[k] = lowerRef(r, false)
			}
		}
		if len(nd.Params) > 0 {
			gn.Params = make([]graph.TensorRef, len(nd.Params))
			for k, r := range nd.Params {
				gn.Params[k] = lowerRef(r, true)
			}
		}
		built[i] = g.AddNode(gn)
		for _, from := range inEdge[i] {
			g.AddEdge(built[from], built[i])
		}
	}
	if err := g.Validate(); err != nil {
		n.errf("graph", "%v", err)
		return nil
	}
	return g
}

// lowerRef converts a wire ref to the internal form. Empty optional arrays
// collapse to nil so a spelled-out-but-empty field and an absent one lower
// identically (the canonical encoder distinguishes nil from empty); offsets
// that are present with entries — even all-zero ones, as concat inputs have —
// are preserved.
func lowerRef(r Ref, param bool) graph.TensorRef {
	return graph.TensorRef{
		Map:    nilIfEmptyInt(r.Map),
		Offset: nilIfEmptyI64(r.Offset),
		Size:   nilIfEmptyI64(r.Size),
		Scale:  r.Scale,
		Param:  param,
	}
}

func nilIfEmptyInt(v []int) []int {
	if len(v) == 0 {
		return nil
	}
	return v
}

func nilIfEmptyI64(v []int64) []int64 {
	if len(v) == 0 {
		return nil
	}
	return v
}

// machine lowers the machine block to a machine.Spec. Preset and explicit
// uniform-cluster fields are mutually exclusive forms of the same thing.
func (n *normalizer) machine() machine.Spec {
	m := n.f.Machine
	if m.GPUs < 1 {
		n.errf("machine.gpus", "must be >= 1, got %d", m.GPUs)
		return machine.Spec{}
	}
	explicit := m.PeakFLOPS != 0 || m.IntraBW != 0 || m.InterBW != 0 || m.GPUsPerNode != 0
	if m.Preset != "" {
		if explicit {
			n.errf("machine", "preset and explicit fields (gpus_per_node, peak_flops, intra_bw, inter_bw) are mutually exclusive")
			return machine.Spec{}
		}
		spec, err := machine.Parse(m.Preset, m.GPUs)
		if err != nil {
			n.errf("machine.preset", "%v", err)
			return machine.Spec{}
		}
		return spec
	}
	bad := false
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"peak_flops", m.PeakFLOPS},
		{"intra_bw", m.IntraBW},
		{"inter_bw", m.InterBW},
	} {
		if !(f.v > 0) || math.IsInf(f.v, 0) {
			n.errf("machine."+f.name, "must be > 0 and finite, got %v", f.v)
			bad = true
		}
	}
	perNode := m.GPUsPerNode
	if perNode == 0 {
		perNode = m.GPUs
	}
	if perNode < 1 {
		n.errf("machine.gpus_per_node", "must be >= 1, got %d", m.GPUsPerNode)
		bad = true
	}
	if bad {
		return machine.Spec{}
	}
	spec := machine.UniformCluster(m.GPUs, perNode, m.PeakFLOPS, m.IntraBW, m.InterBW)
	if err := spec.Validate(); err != nil {
		n.errf("machine", "%v", err)
		return machine.Spec{}
	}
	return spec
}

func (n *normalizer) policy() itspace.EnumPolicy {
	p := n.f.Policy
	if p == nil {
		return itspace.EnumPolicy{}
	}
	if p.MaxSplitDims < 0 {
		n.errf("policy.max_split_dims", "must be >= 0, got %d", p.MaxSplitDims)
		return itspace.EnumPolicy{}
	}
	return itspace.EnumPolicy{MaxSplitDims: p.MaxSplitDims, RequireFullDegree: p.RequireFullDegree}
}
