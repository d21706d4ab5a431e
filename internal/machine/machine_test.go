package machine

import (
	"math"
	"testing"
)

func TestProfilesValidate(t *testing.T) {
	for _, s := range []Spec{GTX1080Ti(8), RTX2080Ti(64), Uniform(4, 1e12, 1e10)} {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
	if err := (Spec{}).Validate(); err == nil {
		t.Fatal("zero spec accepted")
	}
	if err := (Spec{Devices: 4}).Validate(); err == nil {
		t.Fatal("zero-rate spec accepted")
	}
}

func TestMachineBalanceOrdering(t *testing.T) {
	// The 2080Ti platform has a higher compute peak and worse links, hence
	// a strictly higher FLOP-to-byte ratio r — the property the paper's
	// Fig. 6b relies on.
	for _, p := range []int{4, 8, 16, 32, 64} {
		if GTX1080Ti(p).R() >= RTX2080Ti(p).R() {
			t.Fatalf("p=%d: 1080Ti r not below 2080Ti r", p)
		}
	}
}

func TestNodes(t *testing.T) {
	cases := map[int]int{4: 1, 8: 1, 16: 2, 32: 4, 64: 8}
	for p, want := range cases {
		if got := GTX1080Ti(p).Nodes(); got != want {
			t.Fatalf("Nodes(p=%d) = %d, want %d", p, got, want)
		}
	}
	if (Spec{Devices: 4}).Nodes() != 1 {
		t.Fatal("no-GPUsPerNode spec should be one node")
	}
}

func TestAvgBWSingleNodeIsIntra(t *testing.T) {
	s := GTX1080Ti(8)
	if s.LinkBW != s.IntraBW {
		t.Fatalf("single-node LinkBW %v != intra %v", s.LinkBW, s.IntraBW)
	}
	multi := GTX1080Ti(64)
	if multi.LinkBW >= multi.IntraBW {
		t.Fatal("multi-node blended bandwidth should fall below intra")
	}
	if multi.LinkBW <= 0 {
		t.Fatal("non-positive blended bandwidth")
	}
}

func TestHeterogeneousTakesWeakest(t *testing.T) {
	a := GTX1080Ti(8)
	b := RTX2080Ti(8)
	h, err := Heterogeneous(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Devices != 16 {
		t.Fatalf("devices = %d, want 16", h.Devices)
	}
	if h.PeakFLOPS != a.PeakFLOPS { // 1080Ti is the weaker compute
		t.Fatalf("peak = %v, want weakest %v", h.PeakFLOPS, a.PeakFLOPS)
	}
	if h.IntraBW != b.IntraBW { // 2080Ti has the weaker intra link
		t.Fatalf("intra = %v, want weakest %v", h.IntraBW, b.IntraBW)
	}
	if h.PeerToPeer {
		t.Fatal("p2p should be false when any pool lacks it")
	}
	if _, err := Heterogeneous(); err == nil {
		t.Fatal("empty combine accepted")
	}
	if _, err := Heterogeneous(a, Spec{}); err == nil {
		t.Fatal("invalid member accepted")
	}
}

func TestValidateRejectsNonFiniteRates(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := Uniform(8, 1e12, 1e10)
		s.PeakFLOPS = bad
		if s.Validate() == nil {
			t.Errorf("PeakFLOPS %g validated", bad)
		}
		s = Uniform(8, 1e12, 1e10)
		s.LinkBW = bad
		if s.Validate() == nil {
			t.Errorf("LinkBW %g validated", bad)
		}
	}
}
