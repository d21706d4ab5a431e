package cost_test

import (
	"context"
	"testing"

	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/seq"
)

// The dp route's work before its DP, the full model's admission and its
// elimination, builds no view of the full model's quotient-stored tables,
// neither a transpose nor a dense layout; the DP over the eliminated model
// then reads some transposes.
func TestAdmitAndEliminateBuildNoTranspose(t *testing.T) {
	bm, err := models.ByName("inceptionv3")
	if err != nil {
		t.Fatal(err)
	}
	const p = 32
	m, err := cost.NewModel(bm.Build(bm.Batch), machine.GTX1080Ti(p), bm.Policy(p))
	if err != nil {
		t.Fatal(err)
	}
	sq := seq.Generate(m.G)
	if err := core.Admit(m, sq, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if n, d := cost.TransposesBuilt(m), cost.DenseLayoutsBuilt(m); n != 0 || d != 0 {
		t.Fatalf("admission built %d transposes and %d dense layouts", n, d)
	}
	el, err := cost.Eliminate(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, d := cost.TransposesBuilt(m), cost.DenseLayoutsBuilt(m); n != 0 || d != 0 {
		t.Fatalf("elimination built %d transposes and %d dense layouts of the full model", n, d)
	}
	if _, err := core.Solve(context.Background(), el.Model, sq, core.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if cost.TransposesBuilt(el.Model) == 0 {
		t.Error("the DP read no transpose: the count above proves nothing")
	}
}
