package cost

import (
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
)

// This file prices layer and edge costs in seconds against a concrete
// cluster topology. The paper's Eq. 1 collapses the machine into the single
// FLOP-to-byte ratio r (see TL / TXBytes) because its costs had to predict
// real, unobservable hardware; our substrate IS the simulator, so the model
// can price every operation exactly the way the simulator executes it —
// hierarchical intra/inter-node collectives, per-message latency, and
// bucketed gradient sync overlapping the backward pass. The dynamic program
// is agnostic to which pricing is used; ranking preservation (the only
// property the paper requires of its cost function) is exact by
// construction.

// GradOverlap is the fraction of a layer's compute time that its bucketed
// weight-gradient all-reduce can hide under (the backward pass is ~2/3 of a
// step in the 1:2 forward:backward FLOP split).
const GradOverlap = 0.6

// GroupBW returns the effective bandwidth for a collective across `group`
// devices: groups that fit in one node (locality-first assignment packs
// them) ride intra-node links; larger groups blend intra- and inter-node
// bandwidth harmonically by the fraction of ring hops crossing nodes.
func GroupBW(spec machine.Spec, group float64) float64 {
	gpn := float64(spec.GPUsPerNode)
	if gpn <= 0 {
		gpn = float64(spec.Devices)
	}
	if group <= gpn || spec.Nodes() == 1 {
		return spec.IntraBW
	}
	nodes := group / gpn
	crossFrac := nodes / group
	return 1 / ((1-crossFrac)/spec.IntraBW + crossFrac/spec.InterBW)
}

// CollSeconds prices one intra-layer collective. All-reduce-style operations
// spanning several nodes run hierarchically, as NCCL and Mesh-TensorFlow do:
// an intra-node ring phase over the full payload, then an inter-node phase
// over the 1/gpn node-local shard.
func CollSeconds(spec machine.Spec, cl Collective) float64 {
	gpn := float64(spec.GPUsPerNode)
	if gpn <= 0 {
		gpn = float64(spec.Devices)
	}
	if cl.Kind == CollHalo {
		// Neighbour exchange, not a ring: pairwise transfers.
		return cl.WireBytes/GroupBW(spec, cl.Group) + 2*spec.LatencySec
	}
	lat := float64(spec.LatencySec * ringMessages(cl.Group))
	if cl.Group <= gpn || spec.Nodes() == 1 {
		return cl.WireBytes/spec.IntraBW + lat
	}
	nodes := cl.Group / gpn
	intra := 2 * (gpn - 1) / gpn * cl.PayloadBytes / spec.IntraBW
	inter := 2 * (nodes - 1) / nodes * (cl.PayloadBytes / gpn) / spec.InterBW
	return intra + inter + lat
}

// ringMessages is the per-device message count of a ring collective.
func ringMessages(group float64) float64 {
	if group <= 1 {
		return 0
	}
	return 2 * (group - 1)
}

// TLParts prices a layer on the cluster, returning compute and visible
// communication seconds separately. The weight-gradient all-reduce overlaps
// the layer's backward compute; only the excess is visible.
func TLParts(n *graph.Node, c itspace.Config, spec machine.Spec) (compute, comm float64) {
	b := TLBreakdown(n, c)
	eff := spec.ComputeEff
	if eff <= 0 {
		eff = 1
	}
	compute = b.ComputeFLOPs / (spec.PeakFLOPS * eff)
	grad := 0.0
	for _, cl := range b.Colls {
		if cl.Kind == CollGrad {
			grad += CollSeconds(spec, cl)
		} else {
			comm += CollSeconds(spec, cl)
		}
	}
	if excess := grad - float64(GradOverlap*compute); excess > 0 {
		comm += excess
	}
	return compute, comm
}

// TLSeconds prices a layer on the cluster: tl in seconds.
func TLSeconds(n *graph.Node, c itspace.Config, spec machine.Spec) float64 {
	compute, comm := TLParts(n, c, spec)
	return compute + comm
}

// TXSeconds prices the tensor redistribution along an edge: the transfer
// pattern is point-to-point and scattered across the cluster, so it rides
// the blended all-device bandwidth.
func TXSeconds(u, v *graph.Node, inIdx int, cu, cv itspace.Config, spec machine.Spec) float64 {
	bytes := TXBytes(u, v, inIdx, cu, cv)
	if bytes <= 0 {
		return 0
	}
	return bytes/GroupBW(spec, float64(spec.Devices)) + spec.LatencySec
}
