package cost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
)

// fcNode builds a fully-connected layer node: space (b, n, c), output [b, n],
// input [b, c], weights [n, c].
func fcNode(b, n, c int64) *graph.Node {
	return &graph.Node{
		Name: "fc",
		Op:   graph.OpFC,
		Space: itspace.Space{
			{Name: "b", Size: b}, {Name: "n", Size: n}, {Name: "c", Size: c},
		},
		Inputs:        []graph.TensorRef{{Map: []int{0, 2}}},
		Params:        []graph.TensorRef{{Map: []int{1, 2}, Param: true}},
		Output:        graph.TensorRef{Map: []int{0, 1}},
		FlopsPerPoint: 2,
	}
}

func fcChain(dims ...[3]int64) *graph.Graph {
	g := graph.New()
	var prev *graph.Node
	for i, d := range dims {
		nd := fcNode(d[0], d[1], d[2])
		if i == 0 {
			nd.Inputs = nil // source node has no in-edge
		}
		g.AddNode(nd)
		if prev != nil {
			g.AddEdge(prev, nd)
		}
		prev = nd
	}
	return g
}

func TestTLComputeOnly(t *testing.T) {
	n := fcNode(64, 128, 256)
	// Unsplit: cost = 3 * 2 * 64*128*256 FLOP.
	got := TL(n, itspace.Config{1, 1, 1}, 100)
	want := FwdBwdFactor * 2 * 64 * 128 * 256.0
	if got != want {
		t.Fatalf("TL unsplit = %v, want %v", got, want)
	}
}

func TestTLDataParallelGradAllReduce(t *testing.T) {
	n := fcNode(64, 128, 256)
	r := 50.0
	p := 8
	got := TL(n, itspace.Config{int64ToInt(8), 1, 1}, r)
	compute := FwdBwdFactor * 2 * 64 * 128 * 256.0 / 8
	// Weights [n, c] fully replicated across the batch split: ring
	// all-reduce of the full 128*256 float32 gradient over 8 devices.
	wire := 2 * (8.0 - 1) / 8 * 128 * 256 * BytesPerElem
	want := compute + r*wire
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("TL dp = %v, want %v", got, want)
	}
	_ = p
}

func int64ToInt(x int) int { return x }

func TestTLReductionDimAllReduce(t *testing.T) {
	n := fcNode(64, 128, 256)
	r := 50.0
	// Split the contraction dim c 4-ways: output partial sums must be
	// all-reduced; weights are NOT replicated (c is in the weight map).
	got := TL(n, itspace.Config{1, 1, 4}, r)
	compute := FwdBwdFactor * 2 * 64 * 128 * 256.0 / 4
	outBlock := 64 * 128.0 // output untouched by c split
	wire := 2 * ringFactor(4) * outBlock * BytesPerElem
	want := compute + r*wire
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("TL red = %v, want %v", got, want)
	}
}

func TestTLParameterParallelNoGradAllReduce(t *testing.T) {
	n := fcNode(64, 128, 256)
	// Splitting only n (out-channels): weights sharded, no reduction dims
	// split, no gradient sync — compute scales down, no comm at all.
	got := TL(n, itspace.Config{1, 4, 1}, 1000)
	want := FwdBwdFactor * 2 * 64 * 128 * 256.0 / 4
	if got != want {
		t.Fatalf("TL param-parallel = %v, want %v (comm should be zero)", got, want)
	}
}

func TestTLHalo(t *testing.T) {
	conv := &graph.Node{
		Name: "conv",
		Op:   graph.OpConv2D,
		Space: itspace.Space{
			{Name: "b", Size: 8}, {Name: "c", Size: 4},
			{Name: "h", Size: 16}, {Name: "w", Size: 16},
			{Name: "n", Size: 4}, {Name: "r", Size: 3}, {Name: "s", Size: 3},
		},
		Inputs:        []graph.TensorRef{{Map: []int{0, 1, 2, 3}}},
		Params:        []graph.TensorRef{{Map: []int{4, 1, 5, 6}, Param: true}},
		Output:        graph.TensorRef{Map: []int{0, 4, 2, 3}},
		FlopsPerPoint: 2,
		Halo:          []int64{0, 0, 2, 2, 0, 0, 0},
	}
	r := 10.0
	unsplitH := TL(conv, itspace.Config{2, 1, 1, 1, 1, 1, 1}, r)
	splitH := TL(conv, itspace.Config{1, 1, 2, 1, 1, 1, 1}, r)
	// Same compute; the h-split pays halo exchange, the b-split pays the
	// gradient all-reduce. Both must exceed pure compute.
	pure := FwdBwdFactor * 2 * conv.Space.Points() / 2
	if splitH <= pure {
		t.Fatalf("h split has no halo cost: %v <= %v", splitH, pure)
	}
	if unsplitH <= pure {
		t.Fatalf("b split has no grad cost: %v <= %v", unsplitH, pure)
	}
	// Halo along h: input block = 8*4*8*16, slab = block/8(h extent) * 2 =
	// 8*4*16*2 elems, times 2 sides times 2 fwd/bwd. The h split also
	// replicates the filters (h is absent from the weight map), so the
	// 4*4*3*3 weight gradient is all-reduced over the 2 replicas.
	wantHalo := 2.0 * 2 * (8 * 4 * 16 * 2) * BytesPerElem
	wantGrad := ringFactor(2) * (4 * 4 * 3 * 3) * BytesPerElem
	want := wantHalo + wantGrad
	if math.Abs((splitH-pure)-r*want) > 1e-6*r*want {
		t.Fatalf("h-split comm bytes = %v, want %v", (splitH-pure)/r, want)
	}
}

func TestTLNormDims(t *testing.T) {
	sm := &graph.Node{
		Name:          "softmax",
		Op:            graph.OpSoftmax,
		Space:         itspace.Space{{Name: "b", Size: 64}, {Name: "v", Size: 1024}},
		Inputs:        []graph.TensorRef{{Map: []int{0, 1}}},
		Output:        graph.TensorRef{Map: []int{0, 1}},
		FlopsPerPoint: 5,
		NormDims:      []int{1},
	}
	r := 10.0
	split := TL(sm, itspace.Config{1, 4}, r)
	pure := FwdBwdFactor * 5 * 64 * 1024.0 / 4
	// stats = outBlock / reduceExtent = (64*256)/256 = 64 elems.
	want := pure + r*2*ringFactor(4)*64*BytesPerElem
	if math.Abs(split-want) > 1e-6*want {
		t.Fatalf("TL norm = %v, want %v", split, want)
	}
	// Splitting only batch: no norm comm.
	bsplit := TL(sm, itspace.Config{4, 1}, r)
	if bsplit != FwdBwdFactor*5*64*1024.0/4 {
		t.Fatalf("batch split softmax has comm: %v", bsplit)
	}
}

func TestTXIdenticalShardingIsFree(t *testing.T) {
	g := fcChain([3]int64{64, 256, 256}, [3]int64{64, 256, 256})
	u, v := g.Nodes[0], g.Nodes[1]
	// Both data parallel: producer output [b,n] split along b; consumer
	// input [b,c] split along b. Same sharding of the edge tensor.
	if tx := TXBytes(u, v, 0, itspace.Config{8, 1, 1}, itspace.Config{8, 1, 1}); tx != 0 {
		t.Fatalf("identical sharding tx = %v, want 0", tx)
	}
	// Fully replicated both sides: also free.
	if tx := TXBytes(u, v, 0, itspace.Config{1, 1, 1}, itspace.Config{1, 1, 1}); tx != 0 {
		t.Fatalf("replicated tx = %v, want 0", tx)
	}
}

func TestTXAllGather(t *testing.T) {
	g := fcChain([3]int64{64, 256, 256}, [3]int64{64, 256, 256})
	u, v := g.Nodes[0], g.Nodes[1]
	p := 8.0
	// Producer splits out-channels p ways (OWT style); consumer wants the
	// tensor unsharded along channels: classic all-gather of (p-1)/p of the
	// tensor, plus the mirrored backward scatter of the gradient.
	tx := TXBytes(u, v, 0, itspace.Config{1, 8, 1}, itspace.Config{1, 1, 1})
	vol := 64 * 256.0
	want := (vol - vol/p) * BytesPerElem // fwd shortfall; bwd held==have
	if math.Abs(tx-want) > 1e-6*want {
		t.Fatalf("all-gather tx = %v, want %v", tx, want)
	}
}

func TestTXAlternatingFCPatternIsFree(t *testing.T) {
	// Paper §IV.C: FC1 (1,4,8) followed by FC2 (1,8,4) eliminates
	// inter-layer communication: FC1's output [b,n] is split 4-way along n,
	// and FC2 reads input [b,c] split 4-way along c — the same sharding.
	g := fcChain([3]int64{128, 4096, 9216}, [3]int64{128, 4096, 4096})
	u, v := g.Nodes[0], g.Nodes[1]
	tx := TXBytes(u, v, 0, itspace.Config{1, 4, 8}, itspace.Config{1, 8, 4})
	if tx != 0 {
		t.Fatalf("alternating FC tx = %v, want 0", tx)
	}
	// OWT's (1,p,1)/(1,p,1) pays a full all-gather instead.
	owt := TXBytes(u, v, 0, itspace.Config{1, 32, 1}, itspace.Config{1, 32, 1})
	if owt <= 0 {
		t.Fatalf("OWT FC-FC tx = %v, want > 0", owt)
	}
}

func TestTXOrthogonalSplits(t *testing.T) {
	g := fcChain([3]int64{64, 256, 256}, [3]int64{64, 256, 256})
	u, v := g.Nodes[0], g.Nodes[1]
	p := 4.0
	// Producer splits batch, consumer splits channels: worst device holds
	// 1/p² of what it needs.
	tx := TXBytes(u, v, 0, itspace.Config{4, 1, 1}, itspace.Config{1, 1, 4})
	vol := 64 * 256.0
	want := ((vol/p - vol/(p*p)) + (vol/p - vol/(p*p))) * BytesPerElem
	if math.Abs(tx-want) > 1e-6*want {
		t.Fatalf("orthogonal tx = %v, want %v", tx, want)
	}
}

func TestTXSymmetricUnderRefinement(t *testing.T) {
	// Consumer refines producer 2→4 along the same dim: forward needs
	// nothing (finer ⊂ coarser); backward gradient all-gathers half.
	g := fcChain([3]int64{64, 256, 256}, [3]int64{64, 256, 256})
	u, v := g.Nodes[0], g.Nodes[1]
	fine := TXBytes(u, v, 0, itspace.Config{2, 1, 1}, itspace.Config{4, 1, 1})
	coarse := TXBytes(u, v, 0, itspace.Config{4, 1, 1}, itspace.Config{2, 1, 1})
	if math.Abs(fine-coarse) > 1e-9 {
		t.Fatalf("tx not direction-agnostic: %v vs %v", fine, coarse)
	}
	if fine <= 0 {
		t.Fatal("refinement should still pay the backward gather")
	}
}

func TestTXConcatWindow(t *testing.T) {
	// Branch (64 channels) feeding a concat of total 128 channels at offset
	// 64. If the concat splits channels 2-ways, the branch lands entirely in
	// one part: effective consumer split of the window is 1.
	g := graph.New()
	br := g.AddNode(&graph.Node{
		Name:          "branch",
		Space:         itspace.Space{{Name: "b", Size: 8}, {Name: "c", Size: 64}},
		Output:        graph.TensorRef{Map: []int{0, 1}},
		FlopsPerPoint: 1,
	})
	cat := g.AddNode(&graph.Node{
		Name:          "concat",
		Op:            graph.OpConcat,
		Space:         itspace.Space{{Name: "b", Size: 8}, {Name: "c", Size: 128}},
		Inputs:        []graph.TensorRef{{Map: []int{0, 1}, Offset: []int64{0, 64}, Size: []int64{8, 64}}},
		Output:        graph.TensorRef{Map: []int{0, 1}},
		FlopsPerPoint: 0,
	})
	g.AddEdge(br, cat)
	// Producer unsplit, concat splits c by 2: window split g = 64*2/128 = 1
	// → consumer needs the whole window, producer holds it all: free.
	if tx := TXBytes(br, cat, 0, itspace.Config{1, 1}, itspace.Config{1, 2}); tx != 0 {
		t.Fatalf("concat window tx = %v, want 0", tx)
	}
	// Concat splits c by 4: window effectively split 2-ways.
	tx := TXBytes(br, cat, 0, itspace.Config{1, 1}, itspace.Config{1, 4})
	vol := 8 * 64.0
	want := (vol - vol/2) * BytesPerElem
	if math.Abs(tx-want) > 1e-6*want {
		t.Fatalf("concat split tx = %v, want %v", tx, want)
	}
}

func TestTXNonNegativeQuick(t *testing.T) {
	g := fcChain([3]int64{64, 256, 256}, [3]int64{64, 256, 256})
	u, v := g.Nodes[0], g.Nodes[1]
	cfgsU := itspace.Enumerate(u.Space, 16, itspace.EnumPolicy{})
	cfgsV := itspace.Enumerate(v.Space, 16, itspace.EnumPolicy{})
	f := func(a, b uint) bool {
		cu := cfgsU[int(a%uint(len(cfgsU)))]
		cv := cfgsV[int(b%uint(len(cfgsV)))]
		tx := TXBytes(u, v, 0, cu, cv)
		return tx >= 0 && !math.IsNaN(tx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestModelEvalMatchesManualSum(t *testing.T) {
	g := fcChain([3]int64{64, 128, 128}, [3]int64{64, 128, 128}, [3]int64{64, 128, 128})
	spec := machine.Uniform(8, 1e12, 1e10)
	m, err := NewModel(g, spec, itspace.EnumPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{0, 1, 2}
	got := m.EvalIdx(idx)
	want := 0.0
	for v := range idx {
		want += TLSeconds(g.Nodes[v], m.Configs(v)[idx[v]], spec)
	}
	for _, e := range g.Edges() {
		want += TXSeconds(g.Nodes[e[0]], g.Nodes[e[1]], 0,
			m.Configs(e[0])[idx[e[0]]], m.Configs(e[1])[idx[e[1]]], spec)
	}
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("EvalIdx = %v, want %v", got, want)
	}

	// Strategy-based Eval agrees with index-based Eval.
	s := m.StrategyFromIdx(idx)
	ev, err := m.Eval(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev-got) > 1e-9*got {
		t.Fatalf("Eval = %v, EvalIdx = %v", ev, got)
	}
}

func TestModelNodeDeltaMatchesFullEval(t *testing.T) {
	g := fcChain([3]int64{64, 128, 128}, [3]int64{64, 128, 128}, [3]int64{64, 128, 128})
	m, err := NewModel(g, machine.Uniform(8, 1e12, 1e10), itspace.EnumPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	idx := make([]int, g.Len())
	for trial := 0; trial < 200; trial++ {
		for v := range idx {
			idx[v] = rng.Intn(m.K(v))
		}
		v := rng.Intn(g.Len())
		newC := rng.Intn(m.K(v))
		before := m.EvalIdx(idx)
		delta := m.NodeDelta(idx, v, idx[v], newC)
		idx[v] = newC
		after := m.EvalIdx(idx)
		if math.Abs((after-before)-delta) > 1e-6*math.Max(1, math.Abs(after)) {
			t.Fatalf("trial %d: delta = %v, full diff = %v", trial, delta, after-before)
		}
	}
}

func TestModelIdxStrategyRoundTrip(t *testing.T) {
	g := fcChain([3]int64{64, 128, 128}, [3]int64{64, 128, 128})
	m, err := NewModel(g, machine.Uniform(8, 1e12, 1e10), itspace.EnumPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{3, 5}
	s := m.StrategyFromIdx(idx)
	back, err := m.IdxFromStrategy(s)
	if err != nil {
		t.Fatal(err)
	}
	for v := range idx {
		if back[v] != idx[v] {
			t.Fatalf("round trip: %v -> %v", idx, back)
		}
	}
}

func TestModelRejectsInvalidInputs(t *testing.T) {
	g := fcChain([3]int64{64, 128, 128}, [3]int64{64, 128, 128})
	if _, err := NewModel(g, machine.Spec{}, itspace.EnumPolicy{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	bad := graph.New()
	bad.AddNode(&graph.Node{Space: itspace.Space{}, Output: graph.TensorRef{}})
	if _, err := NewModel(bad, machine.Uniform(4, 1e12, 1e10), itspace.EnumPolicy{}); err == nil {
		t.Fatal("invalid graph accepted")
	}
}

func TestMachineSpecs(t *testing.T) {
	s1 := machine.GTX1080Ti(32)
	s2 := machine.RTX2080Ti(32)
	if s1.R() >= s2.R() {
		t.Fatalf("2080Ti must have worse machine balance (higher r): %v vs %v", s1.R(), s2.R())
	}
	if s1.Nodes() != 4 || s2.Nodes() != 4 {
		t.Fatalf("node counts: %d %d", s1.Nodes(), s2.Nodes())
	}
	if err := s1.Validate(); err != nil {
		t.Fatal(err)
	}
	single := machine.GTX1080Ti(4)
	if single.LinkBW != single.IntraBW {
		t.Fatal("single-node cluster should use intra-node bandwidth")
	}
}

// tlPartsByBreakdown is TLParts summed over TLBreakdown's collectives, in
// their order: the definition the buffered pricing must agree with.
func tlPartsByBreakdown(n *graph.Node, c itspace.Config, spec machine.Spec) (compute, comm float64) {
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

// TLParts agrees bit for bit with the TLBreakdown-based sum on every
// configuration of every node of the paper models and gptdeep:3, and
// TLSeconds prices a layer without allocating.
func TestTLPartsMatchesBreakdownWithoutAllocating(t *testing.T) {
	for _, name := range []string{"alexnet", "inceptionv3", "rnnlm", "transformer", "gptdeep:3"} {
		bm, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{8, 32} {
			spec := machine.GTX1080Ti(p)
			m, err := NewModel(bm.Build(bm.Batch), spec, bm.Policy(p))
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range m.G.Nodes {
				for _, c := range m.Configs(n.ID) {
					gc, gm := TLParts(n, c, spec)
					wc, wm := tlPartsByBreakdown(n, c, spec)
					if math.Float64bits(gc) != math.Float64bits(wc) || math.Float64bits(gm) != math.Float64bits(wm) {
						t.Fatalf("%s p=%d %s %v: TLParts (%v, %v), by TLBreakdown (%v, %v)", name, p, n.Name, c, gc, gm, wc, wm)
					}
				}
				cs := m.Configs(n.ID)
				if allocs := testing.AllocsPerRun(5, func() {
					for _, c := range cs {
						TLSeconds(n, c, spec)
					}
				}); allocs != 0 {
					t.Fatalf("%s p=%d %s: TLSeconds made %v allocations", name, p, n.Name, allocs)
				}
			}
		}
	}
}
