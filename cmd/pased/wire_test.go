package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"pase"
)

// wireGolden is one pinned body: the answer to the last of bodies, posted in
// order to path on a daemon of its own over a planner built from cfg.
type wireGolden struct {
	name   string
	cfg    pase.PlannerConfig
	path   string
	bodies []string
}

// pasedDefaults is the planner configuration pased's flags default to.
var pasedDefaults = pase.PlannerConfig{ResultCacheSize: 256, DefaultBeamWidth: 32, DegradeBeamWidth: 16}

func wireGoldens(t *testing.T) []wireGolden {
	degrade := pasedDefaults
	degrade.FaultPlan = mustFaults(t, "dp:oom:1")
	const dp = `{"model":"alexnet","gpus":8}`
	method := func(m string) string { return `{"model":"alexnet","gpus":8,"options":{` + m + `}}` }
	return []wireGolden{
		{"solve_dp", pasedDefaults, "/v1/solve", []string{dp}},
		{"solve_beam", pasedDefaults, "/v1/solve", []string{method(`"method":"beam","beam_width":8,"gap_target":-1`)}},
		{"solve_mcmc", pasedDefaults, "/v1/solve", []string{method(`"method":"mcmc"`)}},
		{"solve_dataparallel", pasedDefaults, "/v1/solve", []string{method(`"method":"dataparallel"`)}},
		{"solve_expert_cnn", pasedDefaults, "/v1/solve", []string{method(`"method":"expert:cnn"`)}},
		{"solve_degraded_oom", degrade, "/v1/solve", []string{dp}},
		// The third answer to a body is written from the memo's stored bytes.
		{"solve_memo_stored_bytes", pasedDefaults, "/v1/solve", []string{dp, dp, dp}},
		{"batch_one_item", pasedDefaults, "/v1/batch", []string{`{"requests":[` + dp + `]}`}},
	}
}

// wallClockMs matches the two values of a body that measure time rather than
// what was solved.
var wallClockMs = regexp.MustCompile(`("(?:search|model)_ms": )[-+.0-9eE]+`)

// wantGolden fails unless got, with its wall-clock values zeroed, is the
// golden file testdata/wire/<name>.json byte for byte.
func wantGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	got = wallClockMs.ReplaceAll(got, []byte("${1}0"))
	want, err := os.ReadFile(filepath.Join("testdata", "wire", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: body differs from its golden:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestWireGoldens pins whole encoded bodies — key order, omitempty and every
// value — for each solve method, a degraded answer, a stored-bytes hit, a
// batch item and an exported strategy document. The memo tests compare a
// body with the encoder that produced it, so only a golden catches a key
// that moved or appeared.
func TestWireGoldens(t *testing.T) {
	for _, c := range wireGoldens(t) {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(newServer(pase.NewPlanner(c.cfg), 64, 0).mux())
			defer ts.Close()
			var raw []byte
			for i, body := range c.bodies {
				var status int
				if status, raw = postRaw(t, ts.URL+c.path, body); status != http.StatusOK {
					t.Fatalf("request %d: %d %s", i, status, raw)
				}
			}
			wantGolden(t, c.name, raw)
		})
	}
	t.Run("export_result", func(t *testing.T) {
		s := newServer(pase.NewPlanner(pasedDefaults), 64, 0)
		req, _, err := s.toRequest(solveRequest{Model: "alexnet", GPUs: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.pl.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := pase.ExportResult("AlexNet", req.G, res, req.Spec.Devices)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := doc.Write(&buf); err != nil {
			t.Fatal(err)
		}
		wantGolden(t, "export_result", buf.Bytes())
	})
}
