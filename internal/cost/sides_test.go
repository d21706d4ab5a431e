package cost_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
)

// Sides encoded once per vertex class must group edges exactly as keying
// every edge by its own two sides does: the same classes, representatives
// and fingerprints, on the registry models at p=8 and p=32 and on random
// layer graphs.
func TestPerClassSidesMatchPerEdgeSides(t *testing.T) {
	check := func(label string, g *graph.Graph, spec machine.Spec, pol itspace.EnumPolicy) {
		t.Helper()
		plan, perEdge := cost.InternEdgeClasses(g, spec, pol)
		if !reflect.DeepEqual(plan, perEdge) {
			t.Fatalf("%s: per-class sides give %d edge classes (reps %v), per-edge sides %d (reps %v)",
				label, len(plan.Reps), plan.Reps, len(perEdge.Reps), perEdge.Reps)
		}
	}
	gbm, err := models.ByName("gptdeep:12")
	if err != nil {
		t.Fatal(err)
	}
	for _, bm := range append(models.Benchmarks(), gbm) {
		g := bm.Build(bm.Batch)
		for _, p := range []int{8, 32} {
			check(fmt.Sprintf("%s@%d", bm.Name, p), g, machine.GTX1080Ti(p), bm.Policy(p))
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := range 40 {
		g := randomWindowGraph(rng, 4+rng.Intn(12))
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("random graph %d", trial), g, machine.GTX1080Ti(8), itspace.EnumPolicy{})
	}
}
