package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
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
