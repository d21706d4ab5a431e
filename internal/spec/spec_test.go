package spec

import (
	"math"
	"slices"
	"strings"
	"testing"

	"pase/internal/itspace"
	"pase/internal/planner"
)

// minimal valid document pieces used across tests.
const diamondDoc = `{
  "version": "pase-graph/v1",
  "name": "diamond",
  "batch": 8,
  "machine": {"preset": "1080ti", "gpus": 4},
  "nodes": [
    {"name": "a", "op": "generic", "dims": [{"name": "n", "size": 64}], "output": {"map": [0]}},
    {"name": "b", "op": "fc", "dims": [{"name": "n", "size": 64}], "flops_per_point": 2,
     "inputs": [{"map": [0]}], "params": [{"map": [0]}], "output": {"map": [0]}},
    {"name": "c", "op": "eltwise", "dims": [{"name": "n", "size": 64}],
     "inputs": [{"map": [0]}], "output": {"map": [0]}},
    {"name": "d", "op": "concat", "dims": [{"name": "n", "size": 128}],
     "inputs": [{"map": [0], "offset": [0], "size": [64]}, {"map": [0], "offset": [64], "size": [64]}],
     "output": {"map": [0]}}
  ],
  "edges": [
    {"from": "a", "to": "b"},
    {"from": "a", "to": "c"},
    {"from": "b", "to": "d", "slot": 0},
    {"from": "c", "to": "d", "slot": 1}
  ]
}`

func loadErr(t *testing.T, doc string) *Error {
	t.Helper()
	_, err := Load([]byte(doc))
	if err == nil {
		t.Fatal("Load succeeded, want diagnostics")
	}
	se, ok := err.(*Error)
	if !ok {
		t.Fatalf("error is %T, want *Error", err)
	}
	return se
}

// wantDiag asserts some diagnostic has exactly path and a message containing
// msgSub.
func wantDiag(t *testing.T, se *Error, path, msgSub string) {
	t.Helper()
	for _, d := range se.Diags {
		if d.Path == path && strings.Contains(d.Msg, msgSub) {
			return
		}
	}
	t.Errorf("no diagnostic at %q containing %q; got: %v", path, msgSub, se.Diags)
}

func TestLoadDiamond(t *testing.T) {
	ir, err := Load([]byte(diamondDoc))
	if err != nil {
		t.Fatal(err)
	}
	if ir.Name != "diamond" || ir.Batch != 8 {
		t.Errorf("metadata: name=%q batch=%d", ir.Name, ir.Batch)
	}
	if ir.G.Len() != 4 {
		t.Fatalf("node count %d", ir.G.Len())
	}
	// Canonical order without ids: lexicographically least topo order.
	var names []string
	for _, n := range ir.G.Nodes {
		names = append(names, n.Name)
	}
	if got := strings.Join(names, ","); got != "a,b,c,d" {
		t.Errorf("canonical order %s", got)
	}
	if ir.Machine.Devices != 4 {
		t.Errorf("machine devices %d", ir.Machine.Devices)
	}
	for _, edit := range [][2]string{
		{`"gpus": 4`, `"gpus": 1`},
		{`"batch": 8,`, `"batch": 8, "policy": {"max_split_dims": 0},`},
		{`"output": {"map": [0]}}`, `"output": {"map": [0]}, "norm_dims": [0]}`},
		{`"offset": [64], "size": [64]`, `"offset": [64], "size": [0]`},
	} {
		if _, err := Load([]byte(mutate(t, edit[0], edit[1]))); err != nil {
			t.Errorf("%s: %v", edit[1], err)
		}
	}
	// The canonical order does not depend on the declaration order.
	for _, perm := range [][]int{{1, 2, 0, 3}, {3, 2, 1, 0}} {
		f, err := Parse([]byte(diamondDoc))
		if err != nil {
			t.Fatal(err)
		}
		declared := slices.Clone(f.Nodes)
		for i, j := range perm {
			f.Nodes[i] = declared[j]
		}
		ir, err := f.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, n := range ir.G.Nodes {
			names = append(names, n.Name)
		}
		if got := strings.Join(names, ","); got != "a,b,c,d" {
			t.Errorf("declared as %v: canonical order %s", perm, got)
		}
	}
	// A zero policy in the request options takes the spec's; an explicit one wins.
	ir, err = Load([]byte(mutate(t, `"batch": 8,`, `"batch": 8, "policy": {"max_split_dims": 2},`)))
	if err != nil {
		t.Fatal(err)
	}
	explicit := itspace.EnumPolicy{MaxSplitDims: 1}
	if got := ir.Request(planner.Options{}).Opts.Policy; got != ir.Policy || got.MaxSplitDims != 2 || ir.Request(planner.Options{Policy: explicit}).Opts.Policy != explicit {
		t.Errorf("request policy %+v from the spec's %+v", got, ir.Policy)
	}
	if d := (Diagnostic{Msg: "m"}); d.String() != "m" {
		t.Errorf("a diagnostic without a path prints %q", d.String())
	}
}

func TestDiagnostics(t *testing.T) {
	cases := []struct {
		name, doc, path, msg string
	}{
		{"invalid json", `{`, "$", "invalid JSON"},
		{"trailing data", `{} {}`, "$", "trailing data"},
		{"not an object", `[1]`, "$", "must be an object"},
		{"unknown root field", `{"version": "pase-graph/v1", "machine": {"gpus": 1}, "nodes": [], "nodez": 1}`,
			"nodez", "unknown field"},
		{"missing version", `{"machine": {"gpus": 1}, "nodes": []}`, "version", "missing required field"},
		{"missing machine", `{"version": "pase-graph/v1", "nodes": []}`, "machine", "missing required field"},
		{"missing nodes", `{"version": "pase-graph/v1", "machine": {"gpus": 1}}`, "nodes", "missing required field"},
		{"negative batch", `{"version": "pase-graph/v1", "batch": -1, "machine": {"gpus": 1}, "nodes": []}`,
			"batch", "must be >= 0"},
		{"float id", `{"version": "pase-graph/v1", "machine": {"gpus": 1}, "nodes": [
			{"id": 1.5, "name": "a", "op": "generic", "dims": [{"name": "n", "size": 2}], "output": {"map": [0]}}]}`,
			"nodes[0].id", "must be an integer"},
		{"nodes not array", `{"version": "pase-graph/v1", "machine": {"gpus": 1}, "nodes": {}}`,
			"nodes", "must be an array"},
		{"unknown node field", `{"version": "pase-graph/v1", "machine": {"gpus": 1}, "nodes": [
			{"name": "a", "op": "generic", "dims": [{"name": "n", "size": 2}], "output": {"map": [0]}, "flops": 3}]}`,
			"nodes[0].flops", "unknown field"},
		{"bad machine unit", `{"version": "pase-graph/v1", "machine": {"gpus": 1, "peak_flops": "eleven"}, "nodes": []}`,
			"machine.peak_flops", "malformed unit value"},
		{"NaN unit", `{"version": "pase-graph/v1", "machine": {"gpus": 1, "peak_flops": "NaN"}, "nodes": []}`,
			"machine.peak_flops", "malformed unit value"},
		{"infinite unit", `{"version": "pase-graph/v1", "machine": {"gpus": 1, "peak_flops": "Infinity"}, "nodes": []}`,
			"machine.peak_flops", "malformed unit value"},
		{"zero rate", `{"version": "pase-graph/v1", "machine": {"gpus": 1, "peak_flops": 0, "intra_bw": 1, "inter_bw": 1}, "nodes": []}`,
			"machine.peak_flops", "must be > 0 and finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantDiag(t, loadErr(t, tc.doc), tc.path, tc.msg)
		})
	}
}

// mutate reruns the diamond doc with one textual substitution applied.
func mutate(t *testing.T, old, new string) string {
	t.Helper()
	if !strings.Contains(diamondDoc, old) {
		t.Fatalf("mutation source %q not in document", old)
	}
	return strings.Replace(diamondDoc, old, new, 1)
}

func TestNormalizeDiagnostics(t *testing.T) {
	cases := []struct {
		name, old, new, path, msg string
	}{
		{"bad version", `"pase-graph/v1"`, `"pase-graph/v2"`, "version", "unsupported version"},
		{"unknown op", `"op": "fc"`, `"op": "perceptron"`, "nodes[1].op", "unknown op"},
		{"empty name", `"name": "c"`, `"name": ""`, "nodes[2].name", "must be non-empty"},
		{"dup name", `"name": "c"`, `"name": "b"`, "nodes[2].name", "first declared at nodes[1]"},
		{"bad dim size", `{"name": "n", "size": 128}`, `{"name": "n", "size": 0}`, "nodes[3].dims[0].size", "must be > 0"},
		{"negative flops", `"flops_per_point": 2`, `"flops_per_point": -2`, "nodes[1].flops_per_point", "must be finite and >= 0"},
		{"ref map range", `"output": {"map": [0]}}`, `"output": {"map": [7]}}`, "nodes[0].output.map[0]", "out of range"},
		{"ref map past the last dim", `"output": {"map": [0]}}`, `"output": {"map": [1]}}`, "nodes[0].output.map[0]", "out of range"},
		{"ref map negative", `"output": {"map": [0]}}`, `"output": {"map": [-1]}}`, "nodes[0].output.map[0]", "out of range"},
		{"norm dim past the last dim", `"output": {"map": [0]}}`, `"output": {"map": [0]}, "norm_dims": [1]}`, "nodes[0].norm_dims[0]", "out of range"},
		{"norm dim negative", `"output": {"map": [0]}}`, `"output": {"map": [0]}, "norm_dims": [-1]}`, "nodes[0].norm_dims[0]", "out of range"},
		{"negative scale", `"output": {"map": [0]}}`, `"output": {"map": [0], "scale": -1}}`, "nodes[0].output.scale", "must be finite and >= 0"},
		{"offset arity", `"offset": [0], "size": [64]`, `"offset": [0, 0], "size": [64]`, "nodes[3].inputs[0].offset", "one per map entry"},
		{"negative size", `"size": [64]},`, `"size": [-64]},`, "nodes[3].inputs[0].size[0]", "must be >= 0"},
		{"edge unknown", `{"from": "a", "to": "b"}`, `{"from": "z", "to": "b"}`, "edges[0].from", "unknown node"},
		{"edge self loop", `{"from": "a", "to": "c"}`, `{"from": "c", "to": "c"}`, "edges[1]", "self-loop"},
		{"slot range", `{"from": "c", "to": "d", "slot": 1}`, `{"from": "c", "to": "d", "slot": 2}`, "edges[3].slot", "out of range"},
		{"dup slot", `{"from": "c", "to": "d", "slot": 1}`, `{"from": "c", "to": "d", "slot": 0}`, "edges[3]", "duplicate edge"},
		{"bad preset", `"preset": "1080ti"`, `"preset": "3090"`, "machine.preset", "unknown spec"},
		{"zero gpus", `"gpus": 4`, `"gpus": 0`, "machine.gpus", "must be >= 1"},
		{"negative policy", `"batch": 8,`, `"batch": 8, "policy": {"max_split_dims": -1},`, "policy.max_split_dims", "must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantDiag(t, loadErr(t, mutate(t, tc.old, tc.new)), tc.path, tc.msg)
		})
	}
}

func TestAllDiagnosticsCollected(t *testing.T) {
	doc := mutate(t, `"op": "fc"`, `"op": "perceptron"`)
	doc = strings.Replace(doc, `"flops_per_point": 2`, `"flops_per_point": -2`, 1)
	doc = strings.Replace(doc, `"gpus": 4`, `"gpus": 0`, 1)
	se := loadErr(t, doc)
	if len(se.Diags) < 3 {
		t.Fatalf("want all 3 problems reported together, got %v", se.Diags)
	}
	wantDiag(t, se, "nodes[1].op", "unknown op")
	wantDiag(t, se, "nodes[1].flops_per_point", "must be finite")
	wantDiag(t, se, "machine.gpus", "must be >= 1")
}

func TestExplicitIDs(t *testing.T) {
	withIDs := strings.NewReplacer(
		`{"name": "a"`, `{"id": 0, "name": "a"`,
		`{"name": "b"`, `{"id": 2, "name": "b"`,
		`{"name": "c"`, `{"id": 1, "name": "c"`,
		`{"name": "d"`, `{"id": 3, "name": "d"`,
	).Replace(diamondDoc)
	ir, err := Load([]byte(withIDs))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, n := range ir.G.Nodes {
		names = append(names, n.Name)
	}
	if got := strings.Join(names, ","); got != "a,c,b,d" {
		t.Errorf("declared-id order not honoured: %s", got)
	}

	t.Run("mixed ids", func(t *testing.T) {
		doc := mutate(t, `{"name": "a"`, `{"id": 0, "name": "a"`)
		wantDiag(t, loadErr(t, doc), "nodes", "all-or-none")
	})
	t.Run("duplicate id", func(t *testing.T) {
		doc := strings.Replace(withIDs, `{"id": 3, "name": "d"`, `{"id": 1, "name": "d"`, 1)
		wantDiag(t, loadErr(t, doc), "nodes[3].id", "duplicate id 1")
	})
	t.Run("id out of range", func(t *testing.T) {
		doc := strings.Replace(withIDs, `{"id": 3, "name": "d"`, `{"id": 9, "name": "d"`, 1)
		wantDiag(t, loadErr(t, doc), "nodes[3].id", "must be in [0, 4)")
	})
	t.Run("non-topological ids", func(t *testing.T) {
		doc := strings.NewReplacer(
			`{"id": 0, "name": "a"`, `{"id": 3, "name": "a"`,
			`{"id": 3, "name": "d"`, `{"id": 0, "name": "d"`,
		).Replace(withIDs)
		wantDiag(t, loadErr(t, doc), "edges[0]", "against the declared id order")
	})
}

func TestOpAliasesAndUnits(t *testing.T) {
	base := `{
	  "version": "pase-graph/v1",
	  "machine": {"gpus": 2, "gpus_per_node": 2, "peak_flops": PEAK, "intra_bw": 12e9, "inter_bw": 10e9},
	  "nodes": [
	    {"name": "x", "op": "generic", "dims": [{"name": "n", "size": 16}], "output": {"map": [0]}},
	    {"name": "y", "op": OP, "dims": [{"name": "n", "size": 16}],
	     "inputs": [{"map": [0]}], "params": [{"map": [0]}], "output": {"map": [0]}}
	  ],
	  "edges": [{"from": "x", "to": "y"}]
	}`
	build := func(op, peak string) string {
		return strings.NewReplacer("OP", op, "PEAK", peak).Replace(base)
	}
	ref, err := Load([]byte(build(`"fc"`, "11.3e12")))
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []string{`"dense"`, `"linear"`, `"Linear"`, `" FC "`} {
		ir, err := Load([]byte(build(variant, "11.3e12")))
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if ir.ModelFingerprint() != ref.ModelFingerprint() {
			t.Errorf("alias %s changes the fingerprint", variant)
		}
	}
	for _, peak := range []string{`"11.3T"`, `"11.3TF"`, `"11.3 TFLOPS"`, `"11300 GFLOP/s"`, `"11300000M"`, `"11300000000K"`, `"11.3e12 FLOPS"`, `"0.0113P"`} {
		ir, err := Load([]byte(build(`"fc"`, peak)))
		if err != nil {
			t.Fatalf("%s: %v", peak, err)
		}
		if ir.ModelFingerprint() != ref.ModelFingerprint() {
			t.Errorf("unit spelling %s changes the fingerprint", peak)
		}
	}
	// A unit with no number is refused; gpus_per_node defaults to gpus and
	// may be 1.
	for doc, ok := range map[string]bool{
		build(`"fc"`, `"F"`): false,
		strings.Replace(build(`"fc"`, "11.3e12"), `"gpus_per_node": 2`, `"gpus_per_node": 1`, 1): true,
		strings.Replace(build(`"fc"`, "11.3e12"), `"gpus_per_node": 2, `, ``, 1):                 true,
	} {
		if _, err := Load([]byte(doc)); (err == nil) != ok {
			t.Errorf("load: %v, want success %v, of %s", err, ok, doc)
		}
	}
}

// Each row's document has exactly one problem, and Normalize reports it
// alone. The rows with an edit reach Normalize with what JSON or Parse
// cannot carry: NaN, ±Inf, a negative slot.
func TestNormalizeReportsOneDiagnostic(t *testing.T) {
	withIDs := strings.NewReplacer(
		`{"name": "a"`, `{"id": 0, "name": "a"`,
		`{"name": "b"`, `{"id": 1, "name": "b"`,
		`{"name": "c"`, `{"id": 2, "name": "c"`,
		`{"name": "d"`, `{"id": 3, "name": "d"`,
	).Replace(diamondDoc)
	const lastEdge = `{"from": "c", "to": "d", "slot": 1}`
	cases := []struct {
		name, doc string
		edit      func(*File)
		path, msg string
	}{
		{"negative id", strings.Replace(withIDs, `"id": 3`, `"id": -1`, 1), nil, "nodes[3].id", "must be in [0, 4)"},
		{"id at the node count", strings.Replace(withIDs, `"id": 3`, `"id": 4`, 1), nil, "nodes[3].id", "must be in [0, 4)"},
		{"unknown source into a root", mutate(t, lastEdge, lastEdge+`, {"from": "z", "to": "a"}`), nil, "edges[4].from", "unknown node"},
		{"unknown target from a root", mutate(t, lastEdge, lastEdge+`, {"from": "a", "to": "z"}`), nil, "edges[4].to", "unknown node"},
		// b's input now comes from d: b→d→b, and a feeds only c.
		{"cycle", mutate(t, `{"from": "a", "to": "b"}`, `{"from": "d", "to": "b"}`), nil, "edges", "cycle"},
		{"unfilled input slot", mutate(t, `{"from": "a", "to": "c"},`, ""), nil, "nodes[2].inputs", "no edge feeding it"},
		{"preset and peak_flops", mutate(t, `"gpus": 4}`, `"gpus": 4, "peak_flops": 1e12}`), nil, "machine", "mutually exclusive"},
		{"preset and intra_bw", mutate(t, `"gpus": 4}`, `"gpus": 4, "intra_bw": 1e9}`), nil, "machine", "mutually exclusive"},
		{"preset and inter_bw", mutate(t, `"gpus": 4}`, `"gpus": 4, "inter_bw": 1e9}`), nil, "machine", "mutually exclusive"},
		{"preset and gpus_per_node", mutate(t, `"gpus": 4}`, `"gpus": 4, "gpus_per_node": 2}`), nil, "machine", "mutually exclusive"},
		{"NaN flops", diamondDoc, func(f *File) { f.Nodes[1].FlopsPerPoint = math.NaN() }, "nodes[1].flops_per_point", "must be finite"},
		{"infinite flops", diamondDoc, func(f *File) { f.Nodes[1].FlopsPerPoint = math.Inf(1) }, "nodes[1].flops_per_point", "must be finite"},
		{"NaN scale", diamondDoc, func(f *File) { f.Nodes[0].Output.Scale = math.NaN() }, "nodes[0].output.scale", "must be finite"},
		{"infinite scale", diamondDoc, func(f *File) { f.Nodes[0].Output.Scale = math.Inf(1) }, "nodes[0].output.scale", "must be finite"},
		{"negative slot", mutate(t, lastEdge, lastEdge+`, {"from": "a", "to": "d"}`), func(f *File) { f.Edges[4].Slot = -1 }, "edges[4].slot", "out of range"},
		{"infinite bandwidth", diamondDoc, func(f *File) {
			f.Machine = Machine{GPUs: 4, PeakFLOPS: 1e12, IntraBW: math.Inf(1), InterBW: 1e9}
		}, "machine.intra_bw", "must be > 0 and finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Parse([]byte(tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			if tc.edit != nil {
				tc.edit(f)
			}
			_, err = f.Normalize()
			se, ok := err.(*Error)
			if !ok || len(se.Diags) != 1 || se.Diags[0].Path != tc.path || !strings.Contains(se.Diags[0].Msg, tc.msg) {
				t.Errorf("got %v, want one diagnostic at %q containing %q", err, tc.path, tc.msg)
			}
		})
	}
}

func TestEmptyVsAbsentOptionalFields(t *testing.T) {
	// Spelling out empty optional arrays must not change the fingerprint:
	// the normalizer collapses empty to nil before lowering.
	ref, err := Load([]byte(diamondDoc))
	if err != nil {
		t.Fatal(err)
	}
	doc := mutate(t, `{"name": "a", "op": "generic", "dims": [{"name": "n", "size": 64}], "output": {"map": [0]}}`,
		`{"name": "a", "op": "generic", "dims": [{"name": "n", "size": 64}], "halo": [], "norm_dims": [], "inputs": [], "params": [], "output": {"map": [0]}}`)
	ir, err := Load([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if ir.ModelFingerprint() != ref.ModelFingerprint() {
		t.Error("empty optional arrays change the fingerprint vs absent ones")
	}
}
