package strategies

import (
	"testing"

	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
)

func TestDataParallelValidOnAllModels(t *testing.T) {
	for _, bm := range models.Benchmarks() {
		g := bm.Build(bm.Batch)
		for _, p := range []int{4, 8, 32} {
			s := DataParallel(g, p)
			if err := s.Validate(g, p); err != nil {
				t.Fatalf("%s p=%d: %v", bm.Name, p, err)
			}
			for _, n := range g.Nodes {
				if b := n.Space.DimIndex("b"); b >= 0 && s[n.ID][b] == 1 && n.Space[b].Size >= int64(p) {
					t.Fatalf("%s p=%d node %s: batch not split", bm.Name, p, n.Name)
				}
			}
		}
	}
}

// The data-parallel strategy is one of every benchmark model's enumerated
// configurations under its policy: the index form the MCMC chain is seeded
// with (IdxFromStrategy), with the batch split p ways on every node.
func TestDataParallelIsEnumerable(t *testing.T) {
	for _, bm := range models.Benchmarks() {
		g := bm.Build(bm.Batch)
		for _, p := range []int{8, 32} {
			m, err := cost.NewModel(g, machine.GTX1080Ti(p), bm.Policy(p))
			if err != nil {
				t.Fatal(err)
			}
			idx, err := m.IdxFromStrategy(DataParallel(g, p))
			if err != nil {
				t.Fatalf("%s p=%d: %v", bm.Name, p, err)
			}
			for _, n := range g.Nodes {
				cfg := m.Configs(n.ID)[idx[n.ID]]
				if b := n.Space.DimIndex("b"); b >= 0 && n.Space[b].Size%int64(p) == 0 && cfg[b] != p {
					t.Fatalf("%s p=%d node %s: configuration %v does not split the batch %d ways", bm.Name, p, n.Name, cfg, p)
				}
			}
		}
	}
}

func TestOWTSplitsFCsAlongChannels(t *testing.T) {
	g := models.AlexNet(128)
	s := OWT(g, 8)
	if err := s.Validate(g, 8); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		switch n.Op {
		case graph.OpFC:
			if nd := n.Space.DimIndex("n"); s[n.ID][nd] != 8 {
				t.Fatalf("FC %s config %v: out-channel not split", n.Name, s[n.ID])
			}
		case graph.OpConv2D:
			if bd := n.Space.DimIndex("b"); s[n.ID][bd] != 8 {
				t.Fatalf("conv %s config %v: batch not split", n.Name, s[n.ID])
			}
		}
	}
}

func TestRNNExpertPipelinesLayers(t *testing.T) {
	g := models.RNNLM(64)
	s := RNNExpert(g, 8)
	if err := s.Validate(g, 8); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if n.Op == graph.OpLSTM {
			l, b := n.Space.DimIndex("l"), n.Space.DimIndex("b")
			if s[n.ID][l] != 2 {
				t.Fatalf("LSTM layers not fully split: %v", s[n.ID])
			}
			if s[n.ID][b] != 4 {
				t.Fatalf("LSTM batch split %d, want 4 (remaining devices)", s[n.ID][b])
			}
		}
	}
}

func TestTransformerExpertMeshLayout(t *testing.T) {
	g := models.Transformer(models.BaseTransformer(64))
	s := TransformerExpert(g, 32)
	if err := s.Validate(g, 32); err != nil {
		t.Fatal(err)
	}
	// m=8, n=4 mesh: batch split 8 everywhere possible, one model dim 4.
	var sawModelSplit bool
	for _, nd := range g.Nodes {
		if b := nd.Space.DimIndex("b"); b >= 0 && s[nd.ID][b] != 8 {
			t.Fatalf("node %s batch split %d, want 8", nd.Name, s[nd.ID][b])
		}
		for _, dim := range []string{"v", "e", "h"} {
			if d := nd.Space.DimIndex(dim); d >= 0 && s[nd.ID][d] > 1 {
				sawModelSplit = true
			}
		}
	}
	if !sawModelSplit {
		t.Fatal("no model dimension split")
	}
}

func TestMeshSplit(t *testing.T) {
	cases := map[int][2]int{4: {2, 2}, 8: {4, 2}, 16: {4, 4}, 32: {8, 4}, 64: {8, 8}}
	for p, want := range cases {
		m, n := meshSplit(p)
		if m != want[0] || n != want[1] {
			t.Fatalf("meshSplit(%d) = (%d, %d), want %v", p, m, n, want)
		}
	}
}

func TestExpertDispatch(t *testing.T) {
	g := models.AlexNet(128)
	if _, err := Expert("cnn", g, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := Expert("alien", g, 8); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// Expert strategies must beat plain data parallelism on their home turf
// under the analytic cost model, and both must be valid full strategies.
func TestExpertBeatsDataParallelWhereExpected(t *testing.T) {
	cases := []struct {
		model  string
		family string
		p      int
	}{
		{"AlexNet", "cnn", 32}, // OWT beats DP on FC-heavy AlexNet
		{"RNNLM", "rnn", 32},   // pipeline+data beats DP on huge-vocab LM
		{"Transformer", "transformer", 32},
	}
	for _, tc := range cases {
		bm, err := models.ByName(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		g := bm.Build(bm.Batch)
		m, err := cost.NewModel(g, machine.GTX1080Ti(tc.p), bm.Policy(tc.p))
		if err != nil {
			t.Fatal(err)
		}
		exp, err := Expert(tc.family, g, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		expCost, err := m.Eval(exp)
		if err != nil {
			t.Fatalf("%s expert: %v", tc.model, err)
		}
		dpCost, err := m.Eval(DataParallel(g, tc.p))
		if err != nil {
			t.Fatal(err)
		}
		if expCost >= dpCost {
			t.Fatalf("%s p=%d: expert %.3e not better than DP %.3e",
				tc.model, tc.p, expCost, dpCost)
		}
	}
}

func TestLargestSplitRespectsBudgetAndDivisibility(t *testing.T) {
	sp := itspace.Space{{Name: "b", Size: 48}, {Name: "n", Size: 100}}
	cfg := itspace.Config{2, 1}
	// Budget p/deg = 8/2 = 4; 48 divisible by 4 → 4.
	if got := largestSplit(sp, cfg, 0, 8, 8); got != 4 {
		t.Fatalf("largestSplit = %d, want 4", got)
	}
	// 100 % 8 != 0; the largest divisor of 8 that divides 100 within the
	// remaining degree budget of 4 is 4.
	if got := largestSplit(sp, cfg, 1, 8, 8); got != 4 {
		t.Fatalf("largestSplit n = %d, want 4", got)
	}
	if got := largestSplit(sp, cfg, -1, 8, 8); got != 1 {
		t.Fatal("negative dim must return 1")
	}
}
