package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pase"
)

// checkGolden compares got with testdata/<name>.golden byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from its golden:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestPaperGoldens pins the deterministic sections of the reproduction —
// Table II's strategies, Fig. 5's ordering statistics and both Fig. 6
// speedup tables over the full device sweep — byte for byte.
func TestPaperGoldens(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    opts
	}{
		{"table2", opts{table2: true}},
		{"fig5", opts{fig5: true}},
		{"fig6", opts{fig6: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := render(&buf, tc.o); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, buf.Bytes())
		})
	}
}

// TestTableIDeterministic pins what Table I computes apart from its wall
// times: which breadth-first cells run out of memory, and the States and
// M of every PaSE solve.
func TestTableIDeterministic(t *testing.T) {
	rows, err := table1Rows(opts{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range rows {
		bf := "ok"
		if r.bf == nil {
			bf = "OOM"
		}
		fmt.Fprintf(&buf, "%s p=%d bf=%s states=%d M=%d\n", r.model, r.p, bf, r.pase.States, r.pase.MaxDepSize)
	}
	checkGolden(t, "table1", buf.Bytes())
}

// fig6OutsideDPSpace names the Fig. 6 baseline strategies, over the -fast
// device list, that use a configuration the DP's enumeration does not contain
// (Model.IdxFromStrategy fails), so the exactness of the DP says nothing
// about them. None does: every Expert strategy is enumerable under its
// model's policy, and the MCMC chain walks the enumeration from it.
var fig6OutsideDPSpace []string

// TestFig6PaSENeverCostlierThanBaselines checks the paper's headline as an
// invariant: the DP is exact over its configuration space, so in every
// Fig. 6 row PaSE's strategy costs no more, under the cost model, than the
// Expert's or the MCMC search's whenever that strategy lies inside the space.
// The simulated speedups are the golden's to pin: the simulator is not the
// objective.
func TestFig6PaSENeverCostlierThanBaselines(t *testing.T) {
	const relTol = 1e-9
	var outside []string
	for _, gpu := range fig6GPUs {
		for _, bm := range pase.Benchmarks() {
			g := bm.Build(bm.Batch)
			for _, p := range (opts{fast: true}).devices() {
				req := fig6Request(gpu, bm, g, p)
				cmp, err := pase.Compare(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				m, err := pase.NewModel(g, req.Spec, req.Opts.Policy)
				if err != nil {
					t.Fatal(err)
				}
				dp := cmp.Entries[len(cmp.Entries)-1]
				if dp.Method != "dp" || dp.Err != nil {
					t.Fatalf("%s %s p=%d: last entry %s, err %v; want dp", gpu, bm.Name, p, dp.Method, dp.Err)
				}
				for _, e := range cmp.Entries[:len(cmp.Entries)-1] {
					row := fmt.Sprintf("%s %s p=%d %s", gpu, bm.Name, p, e.Method)
					if e.Err != nil {
						t.Fatalf("%s: %v", row, e.Err)
					}
					idx, err := m.IdxFromStrategy(e.Result.Strategy)
					if err != nil {
						outside = append(outside, row)
						continue
					}
					if c := m.EvalIdx(idx); dp.Result.Cost > c*(1+relTol) {
						t.Errorf("%s: PaSE costs %v, the baseline's strategy %v", row, dp.Result.Cost, c)
					}
				}
			}
		}
	}
	if !slices.Equal(outside, fig6OutsideDPSpace) {
		t.Errorf("baselines outside the DP's space:\n%q\nwant\n%q", outside, fig6OutsideDPSpace)
	}
}
