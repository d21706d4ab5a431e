// Package cost implements the PaSE analytic cost function (paper Eq. 1):
//
//	F(G, φ) = Σ_{v∈V} tl(v, φ, r) + Σ_{(u,v)∈E} r · tx(u, v, φ)
//
// Layer cost tl is the per-device FLOP count of executing the layer under its
// configuration plus r times the intra-layer communication bytes (partial-sum
// all-reduce for split reduction dims, weight-gradient all-reduce for
// replicated parameters, halo exchange for split convolution spatial dims,
// and normalization reductions). Data-transfer cost tx is the needed-minus-
// held tensor volume on the bottleneck device, counted in both directions
// (forward activations + backward gradients), under the paper's greedy
// locality-maximizing device assignment.
//
// All costs are in FLOP units; divide by the machine's peak FLOPS to obtain
// seconds. As the paper notes, only the relative ranking of strategies
// matters for the search.
package cost

import (
	"math"

	"pase/internal/graph"
	"pase/internal/itspace"
)

// BytesPerElem is the tensor element width (float32 training).
const BytesPerElem = 4.0

// FwdBwdFactor scales forward-pass FLOPs to a full training step: one
// forward plus a roughly 2× backward pass.
const FwdBwdFactor = 3.0

// ringFactor returns the per-device wire bytes multiplier of a bandwidth-
// optimal ring all-reduce over n participants: 2(n-1)/n.
func ringFactor(n float64) float64 {
	if n <= 1 {
		return 0
	}
	return 2 * (n - 1) / n
}

// blockVolume returns the per-device element count of the tensor referenced
// by ref on a node with iteration space sp under configuration c: the full
// volume divided by the split factors of the mapped iteration dims.
func blockVolume(ref graph.TensorRef, sp itspace.Space, c itspace.Config) float64 {
	v := 1.0
	for t := range ref.Map {
		v *= float64(ref.Extent(sp, t)) / float64(c[ref.Map[t]])
	}
	return v
}

// mappedSet returns which iteration dims appear in the ref's map.
func mappedSet(ref graph.TensorRef, ndims int) []bool {
	in := make([]bool, ndims)
	for _, d := range ref.Map {
		in[d] = true
	}
	return in
}

// CollKind classifies an intra-layer communication operation.
type CollKind int

// Intra-layer collective kinds.
const (
	// CollPartialSum is the all-reduce of output partial sums when a
	// reduction dim is split (plus its mirrored backward exchange).
	CollPartialSum CollKind = iota
	// CollGrad is the update-phase weight-gradient all-reduce across a
	// parameter's replica group.
	CollGrad
	// CollHalo is the neighbour halo exchange of split conv spatial dims.
	CollHalo
	// CollNorm is the normalization-statistics reduction (softmax,
	// layer norm) across a split norm dim.
	CollNorm
)

func (k CollKind) String() string {
	switch k {
	case CollPartialSum:
		return "partial-sum"
	case CollGrad:
		return "grad-allreduce"
	case CollHalo:
		return "halo"
	case CollNorm:
		return "norm"
	}
	return "unknown"
}

// Collective is one intra-layer communication operation: WireBytes is the
// per-device wire traffic (ring factors already applied), PayloadBytes the
// underlying per-device block being reduced/exchanged, and Group the number
// of participating devices. The step simulator uses payload and group to
// price hierarchical (intra-node + inter-node) collectives.
type Collective struct {
	Kind         CollKind
	WireBytes    float64
	PayloadBytes float64
	Group        float64
}

// Breakdown decomposes a layer cost into per-device compute FLOPs and its
// intra-layer collectives.
type Breakdown struct {
	ComputeFLOPs float64
	Colls        []Collective
}

// TL computes the layer cost tl(v, C, r) in FLOP units.
func TL(n *graph.Node, c itspace.Config, r float64) float64 {
	b := TLBreakdown(n, c)
	total := b.ComputeFLOPs
	for _, cl := range b.Colls {
		total += float64(r * cl.WireBytes)
	}
	return total
}

// TLBreakdown computes the components of tl(v, C, ·).
func TLBreakdown(n *graph.Node, c itspace.Config) Breakdown {
	// Per-device compute: each device owns 1/degree of the iteration space;
	// replicas redo the same work without extending the critical path.
	b := Breakdown{
		ComputeFLOPs: FwdBwdFactor * n.FlopsPerPoint * n.Space.Points() / float64(c.Degree()),
	}

	// Partial-sum all-reduce: iteration dims absent from the output map are
	// reduction dims; splitting them leaves each device with a partial sum
	// of its output block that must be all-reduced within the group.
	outMapped := mappedSet(n.Output, len(n.Space))
	redSplit := 1.0
	for d := range n.Space {
		if !outMapped[d] {
			redSplit *= float64(c[d])
		}
	}
	if redSplit > 1 {
		outBlock := float64(blockVolume(n.Output, n.Space, c) * n.Output.EffScale())
		// Forward partial-sum reduce and the mirrored backward input-
		// gradient exchange.
		b.Colls = append(b.Colls, Collective{
			Kind:         CollPartialSum,
			WireBytes:    2 * ringFactor(redSplit) * outBlock * BytesPerElem,
			PayloadBytes: 2 * outBlock * BytesPerElem,
			Group:        redSplit,
		})
	}

	// Weight-gradient all-reduce: a parameter is replicated across the
	// product of splits of iteration dims absent from its map (for pure
	// data parallelism that is the whole batch split, reproducing the
	// classic update-phase bottleneck). Gradients are all-reduced once per
	// step over the replica group.
	for _, pr := range n.Params {
		pMapped := mappedSet(pr, len(n.Space))
		rep := 1.0
		for d := range n.Space {
			if !pMapped[d] {
				rep *= float64(c[d])
			}
		}
		if rep > 1 {
			pBlock := blockVolume(pr, n.Space, c) * pr.EffScale()
			// Embedding-table gradients are sparse: only the rows a step
			// touches carry gradient, so frameworks sync index/value pairs
			// instead of the dense table.
			if n.Op == graph.OpEmbedding {
				touched := 2 * blockVolume(n.Output, n.Space, c)
				if touched < pBlock {
					pBlock = touched
				}
			}
			b.Colls = append(b.Colls, Collective{
				Kind:         CollGrad,
				WireBytes:    ringFactor(rep) * pBlock * BytesPerElem,
				PayloadBytes: pBlock * BytesPerElem,
				Group:        rep,
			})
		}
	}

	// Halo exchange: splitting a spatial dim of extent S into ci parts makes
	// each device exchange Halo[d]-wide slabs with both neighbours, forward
	// and backward.
	if n.Halo != nil {
		var haloRef graph.TensorRef
		if len(n.Inputs) > 0 {
			haloRef = n.Inputs[0]
		} else {
			haloRef = n.Output
		}
		inBlock := blockVolume(haloRef, n.Space, c)
		for d, h := range n.Halo {
			if h <= 0 || c[d] <= 1 {
				continue
			}
			blockExtent := float64(n.Space[d].Size) / float64(c[d])
			slab := inBlock / blockExtent * float64(h)
			b.Colls = append(b.Colls, Collective{
				Kind:         CollHalo,
				WireBytes:    2 /*sides*/ * 2 /*fwd+bwd*/ * slab * BytesPerElem,
				PayloadBytes: 2 * 2 * slab * BytesPerElem,
				Group:        float64(c[d]),
			})
		}
	}

	// Normalization reduction (softmax denominator, layer-norm moments):
	// splitting a norm dim requires all-reducing the reduced statistics.
	if len(n.NormDims) > 0 {
		normSplit := 1.0
		reduceExtent := 1.0
		for _, d := range n.NormDims {
			normSplit *= float64(c[d])
			reduceExtent *= float64(n.Space[d].Size) / float64(c[d])
		}
		if normSplit > 1 {
			outBlock := blockVolume(n.Output, n.Space, c)
			stats := outBlock / reduceExtent
			b.Colls = append(b.Colls, Collective{
				Kind:         CollNorm,
				WireBytes:    2 * ringFactor(normSplit) * stats * BytesPerElem,
				PayloadBytes: 2 * stats * BytesPerElem,
				Group:        normSplit,
			})
		}
	}
	return b
}

// TXBytes computes the data-transfer cost tx(u, v, φ) in bytes for the edge
// carrying u's output tensor into input slot inIdx of v, when u and v run
// configurations cu and cv.
//
// Model (DESIGN.md §4.2): device indices are bit strings; each tensor dim t
// is split 2^su_t ways by the producer and 2^sv_t ways by the consumer. The
// greedy locality-maximizing assignment can always align min(su_t, sv_t)
// index bits per dim (producer bit groups are disjoint across dims, so the
// consumer can nest inside or refine them), giving every device an
// intersection of Π_t S_t / 2^max(su_t, sv_t) elements. The transfer is the
// consumer's shortfall (forward activations) plus the producer's shortfall
// of the corresponding gradient (backward), which also makes tx
// edge-direction agnostic as required by the paper (footnote 2).
func TXBytes(u, v *graph.Node, inIdx int, cu, cv itspace.Config) float64 {
	out := u.Output
	in := v.Inputs[inIdx]

	// The edge tensor's global extents are the producer's output extents.
	s := make([]float64, len(out.Map))
	for t := range out.Map {
		s[t] = float64(out.Extent(u.Space, t))
	}
	gus := granularities(out, u.Space, cu, s)
	gvs := granularities(in, v.Space, cv, s)
	need, have, held := 1.0, 1.0, 1.0
	for t := range s {
		gu, gv := gus[t], gvs[t]
		need *= s[t] / gv
		held *= s[t] / gu
		have *= s[t] / math.Max(gu, gv)
	}
	scale := out.EffScale()
	fwd := (need - have) * scale // consumer shortfall: activations
	bwd := (held - have) * scale // producer shortfall: gradients
	if fwd < 0 {
		fwd = 0
	}
	if bwd < 0 {
		bwd = 0
	}
	return (fwd + bwd) * BytesPerElem
}

// effSplit maps a split of an iteration dim of extent dimSize into c parts
// onto the tensor window of extent s: when the window is the whole dim the
// granularity is c; a smaller window (concat slice) sees c scaled by the
// window fraction, floored at 1 (a window inside one part is unsplit).
func effSplit(s, dimSize, c float64) float64 {
	g := s * c / dimSize
	if g < 1 {
		return 1
	}
	return g
}

// granularities returns the per-tensor-dim split factor a side imposes on
// the edge tensor. Consecutive tensor dims mapped to the same iteration dim
// form a row-major flatten group (a conv's (n, h, w) output flattened into a
// fully-connected layer's c dim): the iteration dim's split factor slices
// the flattened range into contiguous chunks, which splits the outermost
// tensor dims first.
func granularities(ref graph.TensorRef, sp itspace.Space, cfg itspace.Config, s []float64) []float64 {
	g := make([]float64, len(ref.Map))
	granularitiesInto(g, ref, sp, cfg, s)
	return g
}

// granularitiesInto is granularities writing into a caller-provided slice of
// length len(ref.Map), for allocation-free table builds.
func granularitiesInto(g []float64, ref graph.TensorRef, sp itspace.Space, cfg itspace.Config, s []float64) {
	for i := 0; i < len(ref.Map); {
		j := i + 1
		for j < len(ref.Map) && ref.Map[j] == ref.Map[i] {
			j++
		}
		if j == i+1 {
			g[i] = effSplit(s[i], float64(sp[ref.Map[i]].Size), float64(cfg[ref.Map[i]]))
		} else {
			// Flatten group: distribute the split outer-dim-first.
			rem := float64(cfg[ref.Map[i]])
			for t := i; t < j; t++ {
				gt := math.Min(rem, s[t])
				if gt < 1 {
					gt = 1
				}
				g[t] = gt
				rem /= gt
				if rem < 1 {
					rem = 1
				}
			}
		}
		i = j
	}
}
