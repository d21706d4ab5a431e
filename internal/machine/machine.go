// Package machine models the parallel execution environment: per-device peak
// floating-point throughput, link bandwidths, and the FLOP-to-byte ratio
// r = F/B that the PaSE cost function uses to normalize communication volume
// into FLOP-equivalents (paper Eq. 1).
package machine

import (
	"fmt"
	"math"

	"pase/internal/canon"
)

// Spec describes a homogeneous cluster of p devices. The paper's cost model
// only needs the average peak per-device FLOPS F and the average per-link
// bandwidth B; the richer topology fields feed the step-time simulator that
// substitutes for the paper's real 1080Ti/2080Ti testbeds.
type Spec struct {
	Name string
	// Devices is p, the device count.
	Devices int
	// PeakFLOPS is F: per-device peak floating-point throughput (FLOP/s).
	PeakFLOPS float64
	// LinkBW is B: the average bandwidth per link in bytes/s used by the
	// analytic cost model.
	LinkBW float64

	// Topology detail (simulator only).
	GPUsPerNode int
	// IntraBW is the effective intra-node (PCIe) bandwidth in bytes/s.
	IntraBW float64
	// InterBW is the effective inter-node (InfiniBand) bandwidth in bytes/s.
	InterBW float64
	// PeerToPeer indicates whether intra-node transfers move directly
	// between GPUs; when false (2080Ti) transfers stage through host memory
	// at reduced effective bandwidth.
	PeerToPeer bool
	// LatencySec is the fixed per-message software+hardware latency.
	LatencySec float64
	// ComputeEff derates PeakFLOPS to a sustainable fraction.
	ComputeEff float64
	// OverheadSec is the fixed per-step framework overhead (graph execution,
	// kernel launches, optimizer bookkeeping) the simulator adds to every
	// step; it compresses throughput ratios the way a real framework does.
	OverheadSec float64
}

// R returns the FLOP-to-byte ratio r = F/B of the paper's cost function.
func (s Spec) R() float64 { return s.PeakFLOPS / s.LinkBW }

// Nodes returns how many multi-GPU nodes the cluster spans.
func (s Spec) Nodes() int {
	if s.GPUsPerNode <= 0 {
		return 1
	}
	n := s.Devices / s.GPUsPerNode
	if s.Devices%s.GPUsPerNode != 0 {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// CanonicalEncode writes the spec's canonical form for request
// fingerprinting: every field the cost model or simulator reads. Name is
// deliberately excluded — it is cosmetic, so numerically identical machines
// under different labels share cached solves.
func (s Spec) CanonicalEncode(w *canon.Writer) {
	w.Label("machine.Spec")
	w.Int(s.Devices)
	w.F64(s.PeakFLOPS)
	w.F64(s.LinkBW)
	w.Int(s.GPUsPerNode)
	w.F64(s.IntraBW)
	w.F64(s.InterBW)
	w.Bool(s.PeerToPeer)
	w.F64(s.LatencySec)
	w.F64(s.ComputeEff)
	w.F64(s.OverheadSec)
}

// Validate reports configuration errors.
func (s Spec) Validate() error {
	if s.Devices < 1 {
		return fmt.Errorf("machine: device count %d < 1", s.Devices)
	}
	if !positiveFinite(s.PeakFLOPS) || !positiveFinite(s.LinkBW) {
		return fmt.Errorf("machine: FLOPS %g and bandwidth %g must be positive and finite", s.PeakFLOPS, s.LinkBW)
	}
	return nil
}

// positiveFinite reports whether v is a usable rate: above zero, not NaN and
// not +Inf.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

const (
	gb = 1e9
	tf = 1e12
)

// GTX1080Ti returns the paper's first evaluation platform: multi-node
// machines of 8 GeForce GTX 1080 Ti GPUs (sm_61), fully connected with PCIe
// links supporting peer-to-peer access, nodes joined by InfiniBand.
//
// Peak numbers are the published card specs (11.3 TFLOPS FP32); link
// bandwidths are effective (not theoretical) values typical of measured
// PCIe 3.0 x16 p2p (~12 GB/s) and EDR-class InfiniBand (~10 GB/s).
func GTX1080Ti(devices int) Spec {
	return Spec{
		Name:        "1080Ti",
		Devices:     devices,
		PeakFLOPS:   11.3 * tf,
		LinkBW:      avgBW(devices, 8, 12*gb, 10*gb),
		GPUsPerNode: 8,
		IntraBW:     12 * gb,
		InterBW:     10 * gb,
		PeerToPeer:  true,
		LatencySec:  20e-6,
		ComputeEff:  0.55,
		OverheadSec: 6e-3,
	}
}

// RTX2080Ti returns the paper's second platform: 8 GeForce RTX 2080 Ti GPUs
// per node (sm_75). 2080Ti PCIe does not support peer-to-peer access, so
// intra-node transfers stage through host memory at sharply reduced
// effective bandwidth, while the compute peak is higher (13.4 TFLOPS FP32) —
// a much lower machine balance, which is why the paper sees up to 4× gains
// over data parallelism there.
func RTX2080Ti(devices int) Spec {
	return Spec{
		Name:        "2080Ti",
		Devices:     devices,
		PeakFLOPS:   13.4 * tf,
		LinkBW:      avgBW(devices, 8, 5*gb, 6*gb),
		GPUsPerNode: 8,
		IntraBW:     5 * gb,
		InterBW:     6 * gb,
		PeerToPeer:  false,
		LatencySec:  25e-6,
		ComputeEff:  0.55,
		OverheadSec: 6e-3,
	}
}

// avgBW blends intra- and inter-node bandwidth by the fraction of ring hops
// that cross node boundaries when p devices are laid out across nodes of
// gpusPerNode; it provides the single average-link B of the analytic model.
func avgBW(p, gpusPerNode int, intra, inter float64) float64 {
	if p <= gpusPerNode {
		return intra
	}
	nodes := (p + gpusPerNode - 1) / gpusPerNode
	crossFrac := float64(nodes) / float64(p)
	// Harmonic blend: a ring all-reduce is gated by its slowest links, so
	// weight inverse bandwidths.
	return 1 / ((1-crossFrac)/intra + crossFrac/inter)
}

// Heterogeneous combines device pools into one effective cluster spec the
// way the paper prescribes for heterogeneous architectures (§V): "the peak
// FLOP and bandwidth, of the weakest computation node and communication
// link, respectively, are used to compute tl and tx, as they form the
// primary bottlenecks." Device counts add; every rate takes the minimum;
// overheads take the maximum.
func Heterogeneous(specs ...Spec) (Spec, error) {
	if len(specs) == 0 {
		return Spec{}, fmt.Errorf("machine: no specs to combine")
	}
	out := specs[0]
	out.Name = "heterogeneous"
	for _, s := range specs[1:] {
		if err := s.Validate(); err != nil {
			return Spec{}, err
		}
		out.Devices += s.Devices
		out.PeakFLOPS = min(out.PeakFLOPS, s.PeakFLOPS)
		out.LinkBW = min(out.LinkBW, s.LinkBW)
		out.IntraBW = min(out.IntraBW, s.IntraBW)
		out.InterBW = min(out.InterBW, s.InterBW)
		out.ComputeEff = min(out.ComputeEff, s.ComputeEff)
		out.PeerToPeer = out.PeerToPeer && s.PeerToPeer
		out.LatencySec = max(out.LatencySec, s.LatencySec)
		out.OverheadSec = max(out.OverheadSec, s.OverheadSec)
		if s.GPUsPerNode < out.GPUsPerNode {
			out.GPUsPerNode = s.GPUsPerNode
		}
	}
	return out, out.Validate()
}

// Uniform returns a simple single-link-class machine, convenient for tests
// and for users with custom hardware.
func Uniform(devices int, peakFLOPS, linkBW float64) Spec {
	return UniformCluster(devices, devices, peakFLOPS, linkBW, linkBW)
}

// UniformCluster generalizes Uniform to a multi-node layout: devices split
// across nodes of gpusPerNode, with distinct intra- and inter-node
// bandwidths. The analytic model's single average link bandwidth is the same
// ring-hop harmonic blend the built-in 1080Ti/2080Ti profiles use. It backs
// the CLI's "uniform:<devices-per-node>:<flops>:<intra-bw>:<inter-bw>"
// machine spec.
func UniformCluster(devices, gpusPerNode int, peakFLOPS, intraBW, interBW float64) Spec {
	if gpusPerNode < 1 {
		gpusPerNode = devices
	}
	return Spec{
		Name:        "uniform",
		Devices:     devices,
		PeakFLOPS:   peakFLOPS,
		LinkBW:      avgBW(devices, gpusPerNode, intraBW, interBW),
		GPUsPerNode: gpusPerNode,
		IntraBW:     intraBW,
		InterBW:     interBW,
		PeerToPeer:  true,
		LatencySec:  10e-6,
		ComputeEff:  1.0,
	}
}
