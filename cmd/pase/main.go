// Command pase finds a parallelization strategy for one of the paper's
// benchmark models and prints it in the style of the paper's Table II,
// together with its analytic cost and simulated step time. The compare
// subcommand runs every solve method on one model and prints the paper's
// method × cost × speedup table (Fig. 6 as a CLI).
//
// Usage:
//
//	pase -model alexnet -gpus 32 -machine 1080ti
//	pase -model transformer -gpus 16 -method expert:transformer
//	pase -model inceptionv3 -gpus 32 -timeout 10s
//	pase -model rnnlm -gpus 16 -machine uniform:8:11.3e12:12e9:10e9
//	pase -model gptdeep:12 -gpus 32 -method beam -width 32 -timeout 5s
//	pase compare -model transformer -gpus 32 -machine 2080ti
//
// Every solve runs through a planner with a cancellable context: -timeout
// bounds the whole run (a deadline aborts a model build or DP mid-flight
// within milliseconds), and -method selects the strategy-search method (dp,
// beam, mcmc, dataparallel, expert:<family>). Method beam is the
// bounded-width DP: -width caps the retained states per DP table, a positive
// -gap doubles the width until the optimality gap reaches it (otherwise one
// pass runs), and the summary reports the achieved gap — the graphs the exact
// DP cannot finish (gptdeep:<layers>) still get a valid strategy with a
// proven quality bound.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"pase"
	"pase/internal/report"
)

func main() {
	if len(os.Args) > 1 {
		var sub func([]string) error
		switch os.Args[1] {
		case "compare":
			sub = compareMain
		case "lint":
			sub = lintMain
		case "export-spec":
			sub = exportSpecMain
		}
		if sub != nil {
			if err := sub(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "pase:", err)
				os.Exit(1)
			}
			return
		}
	}
	var (
		model    = flag.String("model", "alexnet", "benchmark model: alexnet, inceptionv3, rnnlm, transformer, or gptdeep[:layers]")
		specPath = flag.String("spec", "", "solve a pase-graph/v1 spec file instead of a registry -model (mutually exclusive with -model/-gpus/-machine)")
		gpus     = flag.Int("gpus", 32, "device count p")
		mach     = flag.String("machine", "1080ti", "machine profile: 1080ti, 2080ti, or uniform:<devices-per-node>:<flops>:<intra-bw>:<inter-bw>")
		method   = flag.String("method", "dp", "solve method: dp, beam, mcmc, dataparallel, or expert:<family>")
		width    = flag.Int("width", 0, "beam frontier width for -method beam (0 = the planner's default, 32)")
		gap      = flag.Float64("gap", 0, "beam optimality-gap target: >0 doubles the width until reached, <=0 single pass")
		timeout  = flag.Duration("timeout", 0, "abort the solve after this long (0 = no deadline)")
		export   = flag.String("export", "", "write the strategy as JSON to this file")
	)
	flag.Parse()
	var err error
	if *specPath != "" {
		err = conflictingModelFlags()
		if err == nil {
			err = runSpec(*specPath, *method, *width, *gap, *timeout, *export)
		}
	} else {
		err = run(*model, *gpus, *mach, *method, *width, *gap, *timeout, *export)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pase:", err)
		os.Exit(1)
	}
}

// conflictingModelFlags rejects -spec combined with registry-selection flags:
// the spec file carries its own model, machine, and device count.
func conflictingModelFlags() error {
	var conflict error
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "model", "gpus", "machine":
			conflict = fmt.Errorf("-spec and -%s are mutually exclusive (the spec file carries the model, machine, and device count)", f.Name)
		}
	})
	return conflict
}

// withDeadline derives the run's context from -timeout.
func withDeadline(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

func run(model string, gpus int, mach, method string, width int, gap float64, timeout time.Duration, exportPath string) error {
	bm, err := pase.BenchmarkByName(model)
	if err != nil {
		return err
	}
	spec, err := pase.ParseMachine(mach, gpus)
	if err != nil {
		return err
	}
	if err := pase.ValidateMethod(method); err != nil {
		return err
	}
	ctx, cancel := withDeadline(timeout)
	defer cancel()
	g := bm.Build(bm.Batch)
	pl := pase.NewPlanner(pase.PlannerConfig{})
	res, err := pl.Solve(ctx, pase.SolveRequest{
		G:    g,
		Spec: spec,
		Opts: pase.Options{Policy: bm.Policy(gpus), Method: method, BeamWidth: width, GapTarget: gap},
	})
	if err != nil {
		return err
	}
	return reportSolve(pl, bm.Name, g, spec, bm.Batch, gpus, res, exportPath)
}

// reportSolve prints the human-readable solve report — summary, Table II
// strategy, simulated step, memory footprint — and writes the optional
// strategy export. It is shared by the registry (-model) and declarative
// (-spec) paths.
func reportSolve(pl *pase.Planner, name string, g *pase.Graph, spec pase.Machine, batch int64, gpus int, res *pase.Result, exportPath string) error {
	if batch > 0 {
		fmt.Printf("%s on %d × %s (batch %d, method %s)\n", name, gpus, spec.Name, batch, res.Method)
	} else {
		fmt.Printf("%s on %d × %s (method %s)\n", name, gpus, spec.Name, res.Method)
	}
	fmt.Printf("search time: %s (model %s)   cost: %.4g s/step   M=%d   states=%d\n",
		report.Duration(res.Timings.Total), report.Duration(res.Timings.Model), res.Cost, res.MaxDepSize, res.States)
	fmt.Printf("config space: K=%d\n", res.KEffective)
	if res.BeamWidth > 0 {
		fmt.Printf("anytime: width=%d gap=%.4g exact=%v (beam solves %d)\n",
			res.BeamWidth, res.Gap, res.Exact, pl.Stats().BeamSolves)
	}
	if res.Degraded {
		fmt.Printf("degraded: reason=%s — served as bounded-width beam (width %d, gap %.4g) instead of the exact DP\n",
			res.DegradeReason, res.BeamWidth, res.Gap)
	}
	if res.VertexClasses > 0 {
		fmt.Printf("structure: %d vertex classes / %d nodes, %d edge classes, tables %.1f MB resident (%.1f MB shared)\n",
			res.VertexClasses, g.Len(), res.EdgeClasses,
			float64(res.TableBytes)/1e6, float64(res.SharedTableBytes)/1e6)
	}
	fmt.Println()

	tb := &report.Table{
		Title:  fmt.Sprintf("Best strategy (paper Table II layout, p=%d)", gpus),
		Header: []string{"Layer", "Dimensions", "Configuration"},
	}
	for _, n := range g.Nodes {
		tb.Add(n.Name, n.Space.Names(), res.Strategy[n.ID].String())
	}
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}

	mem, err := pase.MemoryFootprint(g, res.Strategy)
	if err != nil {
		return err
	}
	if batch > 0 {
		step, err := pase.Simulate(g, res.Strategy, spec, batch)
		if err != nil {
			return err
		}
		fmt.Printf("\nsimulated step: %.3f ms  (%.0f samples/s)\n",
			step.StepSeconds*1e3, step.Throughput)
	} else {
		fmt.Println()
	}
	fmt.Printf("per-device memory: %.1f MB (activations %.1f, params %.1f, comm %.1f)\n",
		mem.Total()/1e6, mem.Activations/1e6, mem.Parameters/1e6, mem.CommBuffers/1e6)

	if exportPath != "" {
		doc, err := pase.ExportResult(name, g, res, gpus)
		if err != nil {
			return err
		}
		f, err := os.Create(exportPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := doc.Write(f); err != nil {
			return err
		}
		fmt.Printf("strategy written to %s\n", exportPath)
	}
	return nil
}

// compareMain is the compare subcommand: all methods on one model, printed
// as the paper-style method × cost × speedup table.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("pase compare", flag.ExitOnError)
	var (
		model   = fs.String("model", "alexnet", "benchmark model: alexnet, inceptionv3, rnnlm, transformer, or gptdeep[:layers]")
		gpus    = fs.Int("gpus", 32, "device count p")
		mach    = fs.String("machine", "1080ti", "machine profile: 1080ti, 2080ti, or uniform:...")
		width   = fs.Int("width", 0, "beam column's frontier width (0 = the planner's default, 32)")
		timeout = fs.Duration("timeout", 0, "abort the comparison after this long (0 = no deadline)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	bm, err := pase.BenchmarkByName(*model)
	if err != nil {
		return err
	}
	spec, err := pase.ParseMachine(*mach, *gpus)
	if err != nil {
		return err
	}
	ctx, cancel := withDeadline(*timeout)
	defer cancel()
	g := bm.Build(bm.Batch)
	pl := pase.NewPlanner(pase.PlannerConfig{})
	fmt.Printf("%s on %d × %s (batch %d)\n", bm.Name, *gpus, spec.Name, bm.Batch)
	return renderCompare(ctx, pl, bm, g, spec, *gpus, *width)
}

// renderCompare runs Planner.Compare and prints the paper-style table. Its
// anytime-beam row, at width (0 means 32), shows quality vs latency against
// the exact dp row.
func renderCompare(ctx context.Context, pl *pase.Planner, bm pase.Benchmark, g *pase.Graph, spec pase.Machine, gpus, width int) error {
	cmp, err := pl.Compare(ctx, pase.CompareRequest{
		G:      g,
		Spec:   spec,
		Opts:   pase.Options{Policy: bm.Policy(gpus), BeamWidth: width},
		Batch:  bm.Batch,
		Family: bm.Family,
	})
	if err != nil {
		return err
	}
	tb := &report.Table{
		Title:  fmt.Sprintf("Method comparison (speedups over %s, paper Fig. 6)", cmp.Baseline),
		Header: []string{"Method", "Cost (s/step)", "Step (ms)", "Speedup vs DP", "Gap", "Search"},
	}
	for _, e := range cmp.Entries {
		if e.Err != nil {
			tb.Add(e.Method, "error: "+e.Err.Error(), "", "", "", "")
			continue
		}
		gapCol := "-"
		switch {
		case e.Result.Exact:
			gapCol = "exact"
		case e.Result.BeamWidth > 0:
			gapCol = fmt.Sprintf("%.3g", e.Result.Gap)
		}
		tb.Add(e.Method,
			fmt.Sprintf("%.4g", e.Result.Cost),
			fmt.Sprintf("%.3f", e.Step.StepSeconds*1e3),
			fmt.Sprintf("%.2f", e.Speedup),
			gapCol,
			report.Duration(e.Result.Timings.Total))
	}
	return tb.Render(os.Stdout)
}
