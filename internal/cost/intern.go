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
//   - Edge class: the endpoint vertex classes plus the consumer input slot
//     (which pins the iteration-space mapping of the edge tensor on both
//     sides). Members share their TX table and its transpose.
//
// Sharing is value-transparent: a class member's table holds exactly the
// bytes a per-occurrence build would have produced, so solves over an
// interned model are byte-identical — cost and strategy — to the
// BuildOptions.DisableInterning oracle. The wins are build time (one fill
// per class instead of per occurrence) and resident memory
// (Model.TableBytes vs the un-shared footprint; SharedTableBytes is the
// saving).

import (
	"pase/internal/canon"
)

// internPlan is the grouping the builder runs table construction over: dense
// class IDs per node and per edge, plus the representative (first member, in
// node/edge order) of every class.
type internPlan struct {
	vClass []int // per node: dense vertex (content) class ID
	vReps  []int // per vertex class: representative node ID
	eClass []int // per edge: dense edge class ID
	eReps  []int // per edge class: representative edge index
	// Per-class canonical fingerprints — the ClassStore keys and the
	// identities delta detection compares across models. nil for a singleton
	// (DisableInterning) plan, which neither shares nor compares.
	vFPs []canon.Fingerprint // per vertex class: content fingerprint
	eFPs []canon.Fingerprint // per edge class: endpoint classes + slot
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

// vertexClassFingerprints hashes every node's class identity: the machine
// spec and enumeration policy (they determine the configuration set and the
// pricing of every layer term) plus the node's cost-relevant content. It
// runs serially — one SHA-256 over a node's ~1 KB content is microseconds,
// noise next to the table builds the classes then deduplicate.
func (m *Model) vertexClassFingerprints() []canon.Fingerprint {
	fps := make([]canon.Fingerprint, m.G.Len())
	for id := range fps {
		w := canon.NewWriter()
		w.Label("cost.vertex-class/v1")
		m.Spec.CanonicalEncode(w)
		m.Policy.CanonicalEncode(w)
		m.G.Nodes[id].CanonicalEncodeContent(w)
		fps[id] = w.Sum()
	}
	return fps
}

// buildInternPlan groups nodes by content fingerprint and edges by (producer
// class, consumer class, input slot). Class IDs are assigned in first-member
// order, so representatives and IDs are deterministic for a given graph.
func (m *Model) buildInternPlan() *internPlan {
	p := &internPlan{
		vClass: make([]int, m.G.Len()),
		eClass: make([]int, len(m.edges)),
	}
	byFP := make(map[canon.Fingerprint]int, m.G.Len())
	for id, fp := range m.vertexClassFingerprints() {
		ci, ok := byFP[fp]
		if !ok {
			ci = len(p.vReps)
			byFP[fp] = ci
			p.vReps = append(p.vReps, id)
			p.vFPs = append(p.vFPs, fp)
		}
		p.vClass[id] = ci
	}
	type edgeKey struct{ cu, cv, slot int }
	byKey := make(map[edgeKey]int, len(m.edges))
	for e, uv := range m.edges {
		k := edgeKey{p.vClass[uv[0]], p.vClass[uv[1]], m.inSlot[e]}
		ci, ok := byKey[k]
		if !ok {
			ci = len(p.eReps)
			byKey[k] = ci
			p.eReps = append(p.eReps, e)
			w := canon.NewWriter()
			w.Label("cost.edge-class/v1")
			w.FP(p.vFPs[k.cu])
			w.FP(p.vFPs[k.cv])
			w.Int(k.slot)
			p.eFPs = append(p.eFPs, w.Sum())
		}
		p.eClass[e] = ci
	}
	return p
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
	// list and TL row, edges of an edge class their TX table and transpose.
	// They equal Len(G) and len(Edges()) when interning is disabled or no
	// structure repeats.
	VertexClasses int `json:"vertex_classes,omitempty"`
	EdgeClasses   int `json:"edge_classes,omitempty"`
	// TableBytes is the resident footprint of the cost tables (TL rows plus
	// TX tables and transposes), each shared slice counted once;
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
	seen := make(map[*float64]bool, len(m.tl)+2*len(m.tx))
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
	for e := range m.tx {
		count(m.tx[e])
		count(m.txT[e])
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
// node's fingerprint hold byte-identical tables for it — the comparison
// delta re-solve runs. Zero when the model was built with DisableInterning.
func (m *Model) VertexClassFP(v int) canon.Fingerprint {
	if m.vClassFP == nil {
		return canon.Fingerprint{}
	}
	return m.vClassFP[v]
}

// EdgeClassFP returns edge e's edge class fingerprint — the identity of its
// TX table. Zero when the model was built with DisableInterning.
func (m *Model) EdgeClassFP(e int) canon.Fingerprint {
	if m.eClassFP == nil {
		return canon.Fingerprint{}
	}
	return m.eClassFP[e]
}

// ClassStoreHits returns how many class references this build resolved from
// its ClassStore (zero without a store); ClassStoreMisses how many it built
// and published; ClassStoreBytes the table bytes the hits aliased instead of
// rebuilding.
func (m *Model) ClassStoreHits() int64   { return m.classStoreHits }
func (m *Model) ClassStoreMisses() int64 { return m.classStoreMiss }
func (m *Model) ClassStoreBytes() int64  { return m.classStoreBytes }
