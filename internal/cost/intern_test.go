package cost

import (
	"context"
	"testing"

	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
)

// buildPair builds the interned model and the DisableInterning oracle for
// one benchmark graph.
func buildPair(t *testing.T, name string, p int) (interned, oracle *Model) {
	t.Helper()
	bm, err := models.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g := bm.Build(bm.Batch)
	spec := machine.GTX1080Ti(p)
	pol := bm.Policy(p)
	interned, err = NewModelWith(context.Background(), g, spec, pol, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err = NewModelWith(context.Background(), g, spec, pol, BuildOptions{DisableInterning: true})
	if err != nil {
		t.Fatal(err)
	}
	return interned, oracle
}

// The repeated encoder/decoder layers of the Transformer must collapse into
// far fewer classes than nodes, with the aliased tables byte-identical to
// the per-occurrence oracle build.
func TestInterningSharesRepeatedStructure(t *testing.T) {
	m, o := buildPair(t, "transformer", 8)
	n, e := m.G.Len(), len(m.Edges())

	mi, oi := m.Info(), o.Info()
	if mi.VertexClasses >= n/2 {
		t.Errorf("vertex classes %d, want far fewer than %d nodes (repeated layers must share)", mi.VertexClasses, n)
	}
	if mi.EdgeClasses >= e/2 {
		t.Errorf("edge classes %d, want far fewer than %d edges", mi.EdgeClasses, e)
	}
	if mi.SharedTableBytes <= 0 {
		t.Errorf("shared table bytes %d, want > 0", mi.SharedTableBytes)
	}
	if mi.TableBytes >= oi.TableBytes {
		t.Errorf("interned resident bytes %d not below oracle %d", mi.TableBytes, oi.TableBytes)
	}
	if oi.VertexClasses != n || oi.EdgeClasses != e || oi.SharedTableBytes != 0 {
		t.Errorf("oracle sharing stats (%d, %d, %d), want (%d, %d, 0)",
			oi.VertexClasses, oi.EdgeClasses, oi.SharedTableBytes, n, e)
	}

	// Aliasing must be real: two interior encoder layers' TL rows share one
	// backing array.
	var ffn []int
	for _, node := range m.G.Nodes {
		if node.Name == "enc1_ffn_ff1" || node.Name == "enc2_ffn_ff1" {
			ffn = append(ffn, node.ID)
		}
	}
	if len(ffn) != 2 {
		t.Fatalf("found %d enc{1,2}_ffn_ff1 nodes, want 2 (benchmark layout changed?)", len(ffn))
	}
	a, b := m.TLRow(ffn[0]), m.TLRow(ffn[1])
	if &a[0] != &b[0] {
		t.Errorf("enc1/enc2 ffn_ff1 TL rows not aliased")
	}
}

// Interned tables must hold exactly the bytes the oracle build produces, for
// every node and edge of every paper benchmark — sharing may only change who
// owns the memory, never a value.
func TestInternedTablesByteIdenticalToOracle(t *testing.T) {
	for _, bm := range models.Benchmarks() {
		t.Run(bm.Name, func(t *testing.T) {
			m, o := buildPair(t, bm.Name, 8)
			requireOracleTables(t, m, o)
		})
	}
}

// requireOracleTables fails unless m holds exactly the configurations, TL
// rows and TX tables of o, bit for bit: every EdgeCost, the dense layout and
// the transpose.
func requireOracleTables(t *testing.T, m, o *Model) {
	t.Helper()
	for v := 0; v < m.G.Len(); v++ {
		a, b := m.TLRow(v), o.TLRow(v)
		if len(a) != len(b) {
			t.Fatalf("node %d: K %d vs oracle %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d: TL[%d] %v vs oracle %v", v, i, a[i], b[i])
			}
		}
		for i, cfg := range o.Configs(v) {
			if got := m.IndexOf(v, cfg); got != i {
				t.Fatalf("node %d cfg %v: IndexOf %d, oracle ID %d", v, cfg, got, i)
			}
		}
	}
	for e := range m.Edges() {
		a, ka := m.EdgeTable(e)
		b, kb := o.EdgeTable(e)
		if ka != kb || len(a) != len(b) {
			t.Fatalf("edge %d: shape (%d, %d) vs oracle (%d, %d)", e, len(a), ka, len(b), kb)
		}
		for i := range b {
			cu, cv := i/kb, i%kb
			if x := m.EdgeCost(e, cu, cv); x != b[i] {
				t.Fatalf("edge %d: EdgeCost(%d, %d) %v vs oracle %v", e, cu, cv, x, b[i])
			}
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("edge %d: TX[%d] %v vs oracle %v", e, i, a[i], b[i])
			}
		}
		at, kta := m.EdgeTableT(e)
		bt, ktb := o.EdgeTableT(e)
		if kta != ktb {
			t.Fatalf("edge %d: transpose stride %d vs oracle %d", e, kta, ktb)
		}
		for i := range at {
			if at[i] != bt[i] {
				t.Fatalf("edge %d: TXT[%d] %v vs oracle %v", e, i, at[i], bt[i])
			}
		}
	}
	if m.MaxK() != o.MaxK() {
		t.Fatalf("MaxK %d vs oracle %d", m.MaxK(), o.MaxK())
	}
}

// Sharing must hold for a policy-restricted enumeration as well (the
// benchmarks' default policies cap split dims at larger p).
func TestInterningWithRestrictedPolicy(t *testing.T) {
	g := models.Transformer(models.BaseTransformer(64))
	m, err := NewModelWith(context.Background(), g, machine.GTX1080Ti(32), itspace.EnumPolicy{MaxSplitDims: 2}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Info().VertexClasses >= g.Len()/2 {
		t.Errorf("vertex classes %d of %d nodes: repeated layers did not share", m.Info().VertexClasses, g.Len())
	}
}
