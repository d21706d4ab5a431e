package main

// This file holds the declarative-spec entry points of the pase CLI: -spec
// solves a pase-graph/v1 file, the lint subcommand validates and
// fingerprints spec files (all diagnostics, path-addressed), and export-spec
// writes any registry model in spec form.

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"pase"
)

// runSpec is the -spec solve path: load the file through the ingestion
// pipeline and serve it through the same planner/report path as a registry
// model.
func runSpec(path, method string, width int, gap float64, timeout time.Duration, exportPath string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	ir, err := pase.LoadSpec(data)
	if err != nil {
		return specErr(path, err)
	}
	if err := pase.ValidateMethod(method); err != nil {
		return err
	}
	ctx, cancel := withDeadline(timeout)
	defer cancel()
	pl := pase.NewPlanner(pase.PlannerConfig{})
	res, err := pl.Solve(ctx, ir.Request(pase.Options{Method: method, BeamWidth: width, GapTarget: gap}))
	if err != nil {
		return err
	}
	return reportSolve(pl, specName(ir, path), ir.G, ir.Machine, ir.Batch, ir.Machine.Devices, res, exportPath)
}

func specName(ir *pase.SpecIR, path string) string {
	if ir.Name != "" {
		return ir.Name
	}
	return path
}

// specErr renders a failed load as one line per diagnostic, prefixed with
// the file, so editors and CI logs can jump to the offending path.
func specErr(path string, err error) error {
	var se *pase.SpecError
	if !errors.As(err, &se) {
		return err
	}
	for _, d := range se.Diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", path, d)
	}
	return fmt.Errorf("%s: %d problem(s)", path, len(se.Diags))
}

// lintMain is the lint subcommand: validate + normalize every file, print
// its canonical fingerprint on success, print every path-addressed
// diagnostic on failure, exit non-zero if any file failed.
func lintMain(args []string) error {
	fs := flag.NewFlagSet("pase lint", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pase lint <spec.json> [more.json ...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("lint: no spec files given")
	}
	failed := 0
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			failed++
			continue
		}
		ir, err := pase.LoadSpec(data)
		if err != nil {
			var se *pase.SpecError
			if errors.As(err, &se) {
				for _, d := range se.Diags {
					fmt.Fprintf(os.Stderr, "%s: %s\n", path, d)
				}
			} else {
				fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			}
			failed++
			continue
		}
		fmt.Printf("%s: ok — %s: %d nodes, %d edges, p=%d, model %s\n",
			path, specName(ir, path), ir.G.Len(), len(ir.G.Edges()), ir.Machine.Devices, ir.ModelFingerprint())
	}
	if failed > 0 {
		return fmt.Errorf("lint: %d of %d file(s) failed", failed, len(fs.Args()))
	}
	return nil
}

// exportSpecMain is the export-spec subcommand: write a registry model in
// pase-graph/v1 form, node ids pinned so the document round-trips to the
// exact fingerprint of the registry request it mirrors.
func exportSpecMain(args []string) error {
	fs := flag.NewFlagSet("pase export-spec", flag.ExitOnError)
	var (
		model = fs.String("model", "alexnet", "benchmark model: alexnet, inceptionv3, rnnlm, transformer, or gptdeep[:layers]")
		gpus  = fs.Int("gpus", 32, "device count p recorded in the spec")
		mach  = fs.String("machine", "1080ti", "machine preset recorded in the spec: 1080ti, 2080ti, or uniform:...")
		batch = fs.Int64("batch", 0, "batch size to build the graph at (0 = the model's paper batch)")
		out   = fs.String("out", "", "write the spec to this file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	bm, err := pase.BenchmarkByName(*model)
	if err != nil {
		return err
	}
	b := *batch
	if b == 0 {
		b = bm.Batch
	}
	f, err := pase.ExportSpec(bm.Name, bm.Build(b), *mach, *gpus, bm.Policy(*gpus), b)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("spec written to %s\n", *out)
	return nil
}
