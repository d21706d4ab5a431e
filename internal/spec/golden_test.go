package spec

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pase/internal/canon"
	"pase/internal/core"
	"pase/internal/graph"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/planner"
)

// goldens maps each golden example spec to its registry twin. The goldens
// are exported at gpus=8 on the 1080ti preset (matching pase export-spec
// defaults used to generate them), so the twin fingerprint is computed under
// the same machine and policy.
var goldens = map[string]string{
	"alexnet.json":     "alexnet",
	"inceptionv3.json": "inceptionv3",
	"rnnlm.json":       "rnnlm",
	"transformer.json": "transformer",
	"gptdeep3.json":    "gptdeep:3",
}

const goldenGPUs = 8

func goldenPath(t *testing.T, file string) string {
	t.Helper()
	p := filepath.Join("..", "..", "examples", "specs", file)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("golden %s missing: %v (regenerate with: pase export-spec -model <m> -gpus 8 -out %s)", file, err, p)
	}
	return p
}

// twinFingerprint computes the model fingerprint a registry request for the
// benchmark would use.
func twinFingerprint(t *testing.T, model string) canon.Fingerprint {
	t.Helper()
	bm, err := models.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := machine.Parse("1080ti", goldenGPUs)
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := planner.Fingerprints(planner.Request{
		G:    bm.Build(bm.Batch),
		Spec: spec,
		Opts: planner.Options{Policy: bm.Policy(goldenGPUs)},
	})
	return fp
}

// TestGoldensMatchRegistryTwins is the tentpole acceptance check: every
// golden example spec normalizes to the exact model fingerprint of its
// registry twin.
func TestGoldensMatchRegistryTwins(t *testing.T) {
	for file, model := range goldens {
		t.Run(file, func(t *testing.T) {
			data, err := os.ReadFile(goldenPath(t, file))
			if err != nil {
				t.Fatal(err)
			}
			ir, err := Load(data)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ir.ModelFingerprint(), twinFingerprint(t, model); got != want {
				t.Errorf("spec fingerprint %s != registry twin %s", got, want)
			}
		})
	}
}

// permute returns the document with its nodes array, edges array, and (via
// re-marshalling through Go maps, which sort keys) JSON key order permuted.
func permute(t *testing.T, data []byte, seed int64) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, key := range []string{"nodes", "edges"} {
		arr, _ := doc[key].([]any)
		rng.Shuffle(len(arr), func(i, j int) { arr[i], arr[j] = arr[j], arr[i] })
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPermutationDeterminism: randomly permuting node order, edge order, and
// JSON key order of each golden leaves the normalized fingerprint
// byte-identical.
func TestPermutationDeterminism(t *testing.T) {
	for file := range goldens {
		t.Run(file, func(t *testing.T) {
			data, err := os.ReadFile(goldenPath(t, file))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Load(data)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.ModelFingerprint()
			for seed := int64(1); seed <= 5; seed++ {
				ir, err := Load(permute(t, data, seed))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if got := ir.ModelFingerprint(); got != want {
					t.Errorf("seed %d: permuted fingerprint %s != %s", seed, got, want)
				}
			}
		})
	}
}

// TestIDStrippedPathGraph: alexnet is a path graph, whose topological order
// is unique — deleting the explicit ids must reproduce the same canonical
// order and fingerprint via the Kahn numbering.
func TestIDStrippedPathGraph(t *testing.T) {
	data, err := os.ReadFile(goldenPath(t, "alexnet.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, n := range doc["nodes"].([]any) {
		delete(n.(map[string]any), "id")
	}
	stripped, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := Load(stripped)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ir.ModelFingerprint(), twinFingerprint(t, "alexnet"); got != want {
		t.Errorf("id-stripped fingerprint %s != %s", got, want)
	}
}

// TestPermutedSpecHitsPlannerCache: solving a permuted copy of a golden spec
// is served from the planner cache entry the original's solve populated —
// the end-to-end payoff of canonical normalization.
func TestPermutedSpecHitsPlannerCache(t *testing.T) {
	data, err := os.ReadFile(goldenPath(t, "alexnet.json"))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	perm, err := Load(permute(t, data, 42))
	if err != nil {
		t.Fatal(err)
	}
	pl := planner.New(planner.Config{})
	ctx := context.Background()
	first, err := pl.Solve(ctx, orig.Request(planner.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first solve unexpectedly cached")
	}
	second, err := pl.Solve(ctx, perm.Request(planner.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("permuted spec solve missed the planner cache")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", second.Fingerprint, first.Fingerprint)
	}
	if second.Cost != first.Cost {
		t.Errorf("costs differ: %v vs %v", second.Cost, first.Cost)
	}
}

// pinnedSolve is one row of TestSolveFingerprintsPinned: a request's solve
// fingerprint (hex), and what the default dp solve of it returned — the bits
// of Cost under each kernel version, and a digest of the strategy.
type pinnedSolve struct {
	fp       string
	costBits byKernel
	strategy string
}

// byKernel maps a core.KernelVersion to the cost bits pinned under it.
type byKernel map[string]uint64

// kernelSeals seals each cost-bits column of TestSolveFingerprintsPinned by a
// digest of its bits in row order. A column is written once, under the
// KernelVersion whose numerics it pins, and never edited: numerics that move
// take a new core.KernelVersion and a new column beside the old ones.
var kernelSeals = map[string]string{
	"core.kernel/v2": "34974a0a60dba221",
}

// strategyDigest is the first 8 bytes (hex) of a canon hash over the
// strategy's per-node configurations, in node order.
func strategyDigest(s graph.Strategy) string {
	w := canon.NewWriter()
	w.Label("spec.test.strategy-digest")
	w.Len(len(s))
	for _, cfg := range s {
		w.Ints(cfg)
	}
	return w.Sum().String()[:16]
}

// TestSolveFingerprintsPinned pins the solve fingerprint (hex) of the 16
// registry keys — the paper's four models at p ∈ {4, 8, 16, 32} on the
// default machine and policy, default options — and of the five example
// documents, as captured before the first option removal (PR 21's parent). A
// change that removes or renames an option passes here only if it moved no
// request's identity: result caches, snapshots and fleet ownership all hang
// off these values. The other two columns pin the answer: the dp Cost bits
// and strategy digest each request returned at PR 23's parent, the last
// commit that ran the exact-dedup stage — a change to the build pipeline
// passes only if it moved no dp answer. The cost bits are kept per
// core.KernelVersion, one sealed column each (kernelSeals): a re-pin means
// the numerics moved, which core.KernelVersion must then say (or warm
// restarts would serve snapshots of the old numerics beside fresh solves), so
// a version bump fails here until every row has a column under it, and an
// edit of a sealed column fails whatever the version.
func TestSolveFingerprintsPinned(t *testing.T) {
	const v2 = "core.kernel/v2"
	registry := map[string][4]pinnedSolve{ // p = 4, 8, 16, 32
		"AlexNet": {
			{"0bc6aca2a30485af49fdb8e54702fda5dfc2327e829ba148d6de13d87761fea1", byKernel{v2: 0x3fa47e9951967a80}, "2c1e668fce316a17"},
			{"031ffe4d0340a2dad3eb53492765834fe2e528c911b11eb3a7cb1580c79e1b4c", byKernel{v2: 0x3f94df554c575d4d}, "be7725f61027d238"},
			{"4572577d1bd5077cfcf6867e03deac8d8713a121ac69ab7c7ce4204467a31bb8", byKernel{v2: 0x3f86de436eaa8c14}, "a206afa706901803"},
			{"44db855b23db943320210d23177c1ee4cefe3f45ea34e5d9d50df6cd2ecbc610", byKernel{v2: 0x3f7b767ff2a67746}, "576904fec3d830d8"},
		},
		"InceptionV3": {
			{"c288908323434e0b67970af4aef3dd4b13bdce74b7cab90429894b289272185d", byKernel{v2: 0x3fca8d2293de507c}, "4994c05f4ab51b89"},
			{"06c423b3b5ab13049dc4447232056fe51d01e597c1fd4212c99e60628e522cb5", byKernel{v2: 0x3fbc26b04910dc39}, "7cfb799daf26db08"},
			{"b6784bbc519abf7d2e2c8449393322f67020e9fa1072c67d353bf33978907b35", byKernel{v2: 0x3fb4273e8825fd8e}, "fd2d15e1333d2a45"},
			{"512e42e297a9b7a5d7d923d3f9d9d1039a28e8319ee5c2f5ad89b973ff7efd5e", byKernel{v2: 0x3fb0ff82acecbd77}, "c7921f97e5e657b1"},
		},
		"RNNLM": {
			{"3c3df3fc964989e035929782e0230940a5c3ba03aa524dac43b5ddb21f4b1f45", byKernel{v2: 0x3fb57e081b39f801}, "d30683d4fb5304d9"},
			{"8c248f3b2f6e582735b991c9e13e5bee6b5d2dcde5de4fecfaf56bc00747d238", byKernel{v2: 0x3fa5d291bb111e1f}, "9f7021345cc0b055"},
			{"0d400b42efafdd2f4295e73a30faa91213b77c4d810429f0dbfe52944d425443", byKernel{v2: 0x3f96a166a90400e6}, "bc96e23a491bd83d"},
			{"45353409c7908af8f56506f43164e7cae46a9dac5e57bf9e2734071cc95f0c48", byKernel{v2: 0x3f88b260b03bb3f3}, "b27a4ece492acf46"},
		},
		"Transformer": {
			{"4807cc72a3ac2bbdb2a34fc5e3913b2d572d94d95f8fac95af4f06c4970111f5", byKernel{v2: 0x3fcb639c256968e3}, "70f008ac3a03b4ef"},
			{"e5c452f7456a754c174f98a9ec48bc17a8d77735daaf613ef85b6dfb4db7328a", byKernel{v2: 0x3fc0738283f7a808}, "2c0fc886e84905b1"},
			{"198f663f6be6257e40d22bfef06d9ed5f519760aed25cc0ed86da5008ca197e8", byKernel{v2: 0x3fb6450737112981}, "3e81bf8f2e09b209"},
			{"e227a4eefeb6503f6920ba514ecc3a0324a8f6e61f89c5e3b8ca561571e6bb93", byKernel{v2: 0x3fb1905d66272b48}, "2e7d5fbe760549c7"},
		},
	}
	// The four paper documents are their registry twins at p=8.
	documents := map[string]pinnedSolve{
		"alexnet.json":     registry["AlexNet"][1],
		"inceptionv3.json": registry["InceptionV3"][1],
		"rnnlm.json":       registry["RNNLM"][1],
		"transformer.json": registry["Transformer"][1],
		"gptdeep3.json":    {"d6d64b2fc242f19b62a4d7eb1c4ee12095033b9fe956ac0f262ecc8dd42ae336", byKernel{v2: 0x3fa954c969a10453}, "c31055b021527626"},
	}
	rows := func(yield func(string, pinnedSolve) bool) {
		for _, bm := range models.Benchmarks() {
			for i, row := range registry[bm.Name] {
				if !yield(fmt.Sprintf("%s p=%d", bm.Name, 4<<i), row) {
					return
				}
			}
		}
		for _, file := range slices.Sorted(maps.Keys(documents)) {
			if !yield(file, documents[file]) {
				return
			}
		}
	}
	if _, ok := kernelSeals[core.KernelVersion]; !ok {
		t.Fatalf("no cost bits are pinned under core.KernelVersion %q: add its column to every row and seal it in kernelSeals", core.KernelVersion)
	}
	for version, seal := range kernelSeals {
		w := canon.NewWriter()
		w.Label("spec.test.cost-bits-column")
		w.Str(version)
		for name, row := range rows {
			bits, ok := row.costBits[version]
			if !ok {
				t.Errorf("%s: no cost bits under %s", name, version)
			}
			w.I64(int64(bits))
		}
		if got := w.Sum().String()[:16]; got != seal {
			t.Errorf("the %s cost-bits column digests to %s, sealed as %s: a column is never edited — numerics that move take a new core.KernelVersion and a new column", version, got, seal)
		}
	}
	for name, row := range rows {
		for version := range row.costBits {
			if _, ok := kernelSeals[version]; !ok {
				t.Errorf("%s: cost bits under %s, which kernelSeals does not seal", name, version)
			}
		}
	}

	pl := planner.New(planner.Config{})
	check := func(name string, req planner.Request, want pinnedSolve) {
		t.Helper()
		prep, err := pl.Prepare(req)
		if err != nil {
			t.Fatal(err)
		}
		fp := prep.Fingerprint()
		if fp.String() != want.fp {
			t.Errorf("%s: solve fingerprint %s, pinned %s", name, fp, want.fp)
		}
		res, err := pl.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := math.Float64bits(res.Cost), want.costBits[core.KernelVersion]; got != want {
			t.Errorf("%s: dp cost bits %#x (%v), pinned %#x (%v) under %s", name, got, res.Cost, want, math.Float64frombits(want), core.KernelVersion)
		}
		if got := strategyDigest(res.Strategy); got != want.strategy {
			t.Errorf("%s: strategy digest %s, pinned %s", name, got, want.strategy)
		}
	}
	for _, bm := range models.Benchmarks() {
		for i, p := range []int{4, 8, 16, 32} {
			ms, err := machine.Parse("1080ti", p)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s p=%d", bm.Name, p), planner.Request{
				G:    bm.Build(bm.Batch),
				Spec: ms,
				Opts: planner.Options{Policy: bm.Policy(p)},
			}, registry[bm.Name][i])
		}
	}
	for file, want := range documents {
		data, err := os.ReadFile(goldenPath(t, file))
		if err != nil {
			t.Fatal(err)
		}
		ir, err := Load(data)
		if err != nil {
			t.Fatal(err)
		}
		// A fresh planner: the twin's registry solve above would otherwise
		// answer the document from the result cache.
		pl = planner.New(planner.Config{})
		check(file, ir.Request(planner.Options{Policy: ir.Policy}), want)
	}
}
