package spec

import (
	"encoding/json"
	"testing"

	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/planner"
)

func TestExportRoundTrip(t *testing.T) {
	for _, name := range []string{"alexnet", "inceptionv3", "rnnlm", "transformer", "gptdeep:3"} {
		bm, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := bm.Build(bm.Batch)
		f, err := FromGraph(bm.Name, g, "1080ti", 8, bm.Policy(8), bm.Batch)
		if err != nil {
			t.Fatalf("%s: export: %v", name, err)
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		ir, err := Load(data)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		spec, _ := machine.Parse("1080ti", 8)
		want, _ := planner.Fingerprints(planner.Request{G: g, Spec: spec, Opts: planner.Options{Policy: bm.Policy(8)}})
		if got := ir.ModelFingerprint(); got != want {
			t.Errorf("%s: fingerprint mismatch: spec %s registry %s", name, got, want)
		}
	}
	// One GPU is a machine too.
	if _, err := FromGraph("alexnet", models.AlexNet(128), "1080ti", 1, itspace.EnumPolicy{}, 128); err != nil {
		t.Errorf("export at 1 GPU: %v", err)
	}
}
