package cost

// Structural sharing (DESIGN.md "Structural sharing & memory"): the paper's
// benchmark graphs are dominated by repeated structure — a Transformer's six
// identical encoder layers, InceptionV3's repeated inception modules — whose
// nodes and edges produce byte-identical TL rows and TX tables. Instead of
// building and storing one table per occurrence, the model computes a
// canonical *class fingerprint* per vertex and per edge, builds each distinct
// table exactly once, and aliases every class member to the shared slice.
// Two class levels, each keyed by internal/canon fingerprints:
//
//   - Vertex class: machine spec + enumeration policy + the node's
//     cost-relevant content (graph.Node.CanonicalEncodeContent — op,
//     iteration space, tensor refs, FLOPs density, halos, norm dims).
//     Members share their configuration list and TL row.
//   - Edge class (cost.edge-class/v2): machine spec + enumeration policy +
//     exactly what txTables reads — the producer's iteration space and
//     output ref, the consumer's iteration space and the input ref it reads
//     the edge through. Members share their TX table, and its dense layout
//     and transpose once something has read them (Model.EdgeTable,
//     EdgeTableT). A node's op, FLOPs density,
//     halos, norm dims and params price only its TL row, so an edit to them
//     moves no edge class, and vertex classes that differ only there share
//     TX tables.
//
// Each class is hashed once: nodes and edge sides are encoded into one
// reused canon recorder and grouped by their bytes before any hashing.
//
// Below the edge classes, the build shares by content (tx.go): each
// distinct TX side (side id and edge extents) is built once, and each
// distinct quotient table (both sides' distinct quotient vectors and the
// tensor's EffScale) is computed once and shared by every edge class that
// reads it, each class keeping its own row and column maps over it.
//
// Sharing is value-transparent: a class member's table holds exactly the
// bytes a per-occurrence build would have produced, so solves over an
// interned model are byte-identical — cost and strategy — to the
// BuildOptions.DisableInterning oracle. The wins are build time (one fill
// per distinct table instead of per occurrence) and resident memory
// (Model.TableBytes vs the un-shared footprint; SharedTableBytes is the
// saving).

import (
	"pase/internal/canon"
	"pase/internal/graph"
)

// internPlan is the grouping the builder runs table construction over: dense
// class IDs per node and per edge, plus the representative (first member, in
// node/edge order) of every class.
type internPlan struct {
	vClass []int // per node: dense vertex (content) class ID
	vReps  []int // per vertex class: representative node ID
	eClass []int // per edge: dense edge class ID
	eReps  []int // per edge class: representative edge index
	// Per-class canonical fingerprints — the ClassStore keys and the names
	// the DP's table keys give TL rows and TX tables, compared across models
	// by delta re-solve. nil for a singleton (DisableInterning) plan, which
	// neither shares nor compares.
	vFPs []canon.Fingerprint // per vertex class: content fingerprint
	eFPs []canon.Fingerprint // per edge class: the two sides txTables reads
	// Per edge class, the side ids of its producer's output and its
	// consumer's input slot: equal ids encode the same space and ref. nil
	// for a singleton plan.
	eSides [][2]int
}

// singletonPlan is the DisableInterning oracle: every node and edge is its
// own class, reproducing the per-occurrence build exactly.
func singletonPlan(nNodes, nEdges int) *internPlan {
	p := &internPlan{
		vClass: make([]int, nNodes),
		vReps:  make([]int, nNodes),
		eClass: make([]int, nEdges),
		eReps:  make([]int, nEdges),
	}
	for i := range p.vClass {
		p.vClass[i] = i
		p.vReps[i] = i
	}
	for e := range p.eClass {
		p.eClass[e] = e
		p.eReps[e] = e
	}
	return p
}

// buildInternPlan groups nodes by content and edges by their two sides, each
// side encoded once per vertex class after a shared prefix (classPrefix) and
// classed by its bytes; each class is then hashed once. A side's
// configurations are a function of its space, so the sides and the prefix
// are everything txTables reads.
// Class IDs are assigned in first-member order, so representatives and IDs
// are deterministic for a given graph.
func (m *Model) buildInternPlan() *internPlan {
	p := &internPlan{
		vClass: make([]int, m.G.Len()),
		eClass: make([]int, len(m.edges)),
	}
	w := canon.NewRecorder()
	head := m.classPrefix(w, "cost.vertex-class/v1")
	byContent := make(map[string]int, m.G.Len())
	for id, n := range m.G.Nodes {
		w.Truncate(head)
		n.CanonicalEncodeContent(w)
		content := w.Bytes()[head:]
		ci, ok := byContent[string(content)]
		if !ok {
			ci = len(p.vReps)
			byContent[string(content)] = ci
			p.vReps = append(p.vReps, id)
			p.vFPs = append(p.vFPs, w.Sum())
		}
		p.vClass[id] = ci
	}

	head = m.classPrefix(w, "cost.edge-class/v2")
	bySide := make(map[string]int, m.G.Len())
	side := func(n *graph.Node, ref graph.TensorRef) int {
		n.Space.CanonicalEncode(w)
		ref.CanonicalEncode(w)
		b := w.Bytes()[head:]
		id, ok := bySide[string(b)]
		if !ok {
			id = len(bySide)
			bySide[string(b)] = id
		}
		w.Truncate(head)
		return id
	}
	// A vertex class fixes its members' spaces and refs, so each class's
	// output side and input slots' sides are encoded once: sides[c][0] is the
	// output's, sides[c][1+k] slot k's.
	sides := make([][]int, len(p.vReps))
	for c, id := range p.vReps {
		n := m.G.Nodes[id]
		sides[c] = append(make([]int, 0, 1+len(n.Inputs)), side(n, n.Output))
		for _, in := range n.Inputs {
			sides[c] = append(sides[c], side(n, in))
		}
	}
	type edgeKey struct{ su, sv int }
	byKey := make(map[edgeKey]int, len(m.edges))
	for e, uv := range m.edges {
		nu, nv := m.G.Nodes[uv[0]], m.G.Nodes[uv[1]]
		in := nv.Inputs[m.inSlot[e]]
		k := edgeKey{sides[p.vClass[uv[0]]][0], sides[p.vClass[uv[1]]][1+m.inSlot[e]]}
		ci, ok := byKey[k]
		if !ok {
			ci = len(p.eReps)
			byKey[k] = ci
			p.eReps = append(p.eReps, e)
			p.eSides = append(p.eSides, [2]int{k.su, k.sv})
			nu.Space.CanonicalEncode(w)
			nu.Output.CanonicalEncode(w)
			nv.Space.CanonicalEncode(w)
			in.CanonicalEncode(w)
			p.eFPs = append(p.eFPs, w.Sum())
			w.Truncate(head)
		}
		p.eClass[e] = ci
	}
	return p
}

// classPrefix rewinds w and writes a class scheme's shared prefix — its
// label, the machine spec and the enumeration policy — returning its length.
func (m *Model) classPrefix(w *canon.Writer, label string) int {
	w.Truncate(0)
	w.Label(label)
	m.Spec.CanonicalEncode(w)
	m.Policy.CanonicalEncode(w)
	return len(w.Bytes())
}

// ModelInfo is what a built model records of its own tables: the paper's K
// and the structural sharing the build found. The solves over a model carry
// it into their stats, results and strategy documents, under these keys.
type ModelInfo struct {
	// KEffective is the largest per-vertex configuration count — the
	// paper's K, what a search over the model iterates over.
	KEffective int `json:"k_effective,omitempty"`
	// VertexClasses / EdgeClasses are the distinct vertex and edge classes
	// the build found: nodes of a vertex class share their configuration
	// list and TL row, edges of an edge class their TX table.
	// They equal Len(G) and len(Edges()) when interning is disabled or no
	// structure repeats.
	VertexClasses int `json:"vertex_classes,omitempty"`
	EdgeClasses   int `json:"edge_classes,omitempty"`
	// TableBytes is the resident footprint of the cost tables as built (TL
	// rows plus the TX tables' stored quotients), each shared slice counted
	// once; a dense layout or transpose built later on first read is not
	// counted, so the number does not depend on which search read the model
	// first.
	// SharedTableBytes is what sharing saved versus a per-occurrence build,
	// zero when interning is disabled or nothing repeats.
	TableBytes       int64 `json:"table_bytes,omitempty"`
	SharedTableBytes int64 `json:"shared_table_bytes,omitempty"`
}

// Info returns the model's ModelInfo.
func (m *Model) Info() ModelInfo { return m.info }

// computeInfo fills the model's ModelInfo once the tables are final:
// resident bytes count each distinct backing slice once (aliases identified
// by their first element's address), logical bytes are what a
// per-occurrence build would hold, and the difference is the sharing saving.
func (m *Model) computeInfo(p *internPlan) {
	seen := make(map[*float64]bool, len(m.tl)+len(m.txc))
	var resident, logical int64
	count := func(s []float64) {
		if len(s) == 0 {
			return
		}
		logical += int64(len(s))
		if f := &s[0]; !seen[f] {
			seen[f] = true
			resident += int64(len(s))
		}
	}
	k := 0
	for _, row := range m.tl {
		count(row)
		k = max(k, len(row))
	}
	for _, t := range m.txc {
		count(t.q)
	}
	m.info = ModelInfo{
		KEffective:       k,
		VertexClasses:    len(p.vReps),
		EdgeClasses:      len(p.eReps),
		TableBytes:       resident * 8,
		SharedTableBytes: (logical - resident) * 8,
	}
}

// VertexClassFP returns node v's vertex class fingerprint: the canonical
// identity of its configuration list and TL row. Two models agreeing on a
// node's fingerprint hold byte-identical tables for it, which is what lets
// the DP's table keys name the row by it and a delta re-solve keep tables
// across models. Zero when the model was built with DisableInterning.
func (m *Model) VertexClassFP(v int) canon.Fingerprint {
	if m.vClassFP == nil {
		return canon.Fingerprint{}
	}
	return m.vClassFP[v]
}

// EdgeClassFP returns edge e's edge class fingerprint — the identity of its
// TX table, keyed by what the table reads and nothing else: an edit that
// prices only a node's TL row leaves every incident edge's fingerprint as it
// was. Zero when the model was built with DisableInterning.
func (m *Model) EdgeClassFP(e int) canon.Fingerprint {
	if m.eClassFP == nil {
		return canon.Fingerprint{}
	}
	return m.eClassFP[e]
}
