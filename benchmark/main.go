// Command benchmark is the repository's end-to-end benchmark: four fixed
// closed-loop workloads, measured with tracing off for the end-to-end metrics
// and replayed layer by layer under in-memory spans for the per-layer ones.
// See README.md; start it through run.sh, which builds it and the daemon.
//
//	run.sh --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (the driver's form)
//	run.sh run [--workload W] [--seed N] [--seconds S]     every workload, each in its own process
//	run.sh run --check-determinism                         counts and quality metrics repeat
//	run.sh trace [--workload W] [--seed N]                 the traced slices and their span files
//	run.sh aa [--runs 5]                                   two interleaved sets of runs of one binary
//	run.sh golden                                          regenerate golden_costs.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

const (
	// outDir receives span files and daemon logs; pasedBin is the daemon
	// run.sh built.
	outDir   = "benchmark/out"
	pasedBin = ".bench_build/bin/pased"
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 20
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		stopAll()
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if _, err := os.Stat("benchmark/run.sh"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	killOnSignal()
	cmd := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("benchmark "+cmd, flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload name (default: every workload, where the command allows)")
		seed    = fs.Int64("seed", 1, "orders the slots of each workload's pattern")
		seconds = fs.Float64("seconds", defaultSeconds, "length of the measured window on the reference machine; fixes the op count")
		trace   = fs.Int("trace", 0, "1 runs the traced slice and reports the per-layer metrics")
		runs    = fs.Int("runs", 5, "aa: runs per set")
		determ  = fs.Bool("check-determinism", false, "run: require counts and quality metrics to repeat")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	e := env{seed: *seed, seconds: *seconds}
	picked := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		picked = []workload{w}
	}
	switch cmd {
	case "":
		if len(picked) != 1 {
			return errors.New("--workload is required")
		}
		return single(picked[0], e, *trace == 1)
	case "run":
		if *determ {
			return checkDeterminism(picked, e)
		}
		return runAll(picked, e, false)
	case "trace":
		return runAll(picked, e, true)
	case "aa":
		return aa(picked, e, *runs)
	case "golden":
		return writeGoldens()
	}
	return fmt.Errorf("unknown command %q (want run, trace, aa or golden)", cmd)
}

// report is the one JSON line a run ends with.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// single runs one workload in this process and prints its report.
func single(w workload, e env, traced bool) error {
	var res *result
	defs := endToEnd
	if traced {
		defs = perLayer
		t, err := w.trace(e)
		if err != nil {
			return err
		}
		if err := writeSpans(filepath.Join(outDir, "trace-"+w.name+".json"), t.spans); err != nil {
			return err
		}
		res = &t.result
	} else {
		var err error
		if res, err = measure(w, e); err != nil {
			return err
		}
	}
	rep := report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: res.metrics[d.name], Unit: d.unit}
	}
	for _, msg := range res.errs {
		fmt.Fprintf(os.Stderr, "%s: FAILED CHECK: %s\n", w.name, msg)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// child runs one workload in a fresh process of this binary, so that heap
// state and peak memory belong to that workload alone.
func child(w workload, e env, traced bool) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(e.seed), "--seconds", fmt.Sprint(e.seconds), "--trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s: last line of output: %w", w.name, err)
	}
	return &rep, nil
}

// runAll runs the picked workloads one after another and prints every metric
// by name with its unit. It fails when any op of any workload failed.
func runAll(picked []workload, e env, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	failed := false
	for _, w := range picked {
		rep, err := child(w, e, traced)
		if err != nil {
			return err
		}
		share := float64(rep.Failed) / float64(rep.Attempted)
		fmt.Printf("%s  (seed %d)  failed_ops_share %g (%d of %d ops)\n", w.name, e.seed, share, rep.Failed, rep.Attempted)
		for _, d := range defs {
			fmt.Printf("  %-30s %14.6g %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
		}
		failed = failed || !rep.Correct
	}
	if failed {
		return errors.New("some ops failed their output checks")
	}
	return nil
}

// worse is how much worse b is than a, as a share of a, in the metric's
// direction; negative when b is better.
func (d metricDef) worse(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// aa runs two interleaved sets (A B B A ...) of full runs of this one binary
// and compares their medians the way a later change will be compared with
// its parent: any disagreement is the benchmark's own noise.
func aa(picked []workload, e env, runs int) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < 2*runs; i++ {
		set := []int{0, 1, 1, 0}[i%4]
		for _, w := range picked {
			rep, err := child(w, e, false)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s: %d of %d ops failed", w.name, rep.Failed, rep.Attempted)
			}
			for _, d := range endToEnd {
				k := key{w.name, d.name}
				sets[set][k] = append(sets[set][k], rep.Metrics[d.name].Value)
			}
		}
		fmt.Fprintf(os.Stderr, "aa: run %d of %d done (set %c)\n", i+1, 2*runs, "AB"[set])
	}
	over := 0
	fmt.Printf("%-11s %-22s %14s %14s %10s %8s\n", "workload", "metric", "median A", "median B", "disagree", "bound")
	for _, w := range picked {
		for _, d := range endToEnd {
			a, b := median(sets[0][key{w.name, d.name}]), median(sets[1][key{w.name, d.name}])
			dis := max(d.worse(a, b), d.worse(b, a))
			flag := ""
			if dis > d.bound {
				flag = "  OVER"
				over++
			}
			fmt.Printf("%-11s %-22s %14.6g %14.6g %10.5f %8g%s\n", w.name, d.name, a, b, dis, d.bound, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d workload x metric pairs disagree between two sets of the same code by more than their bound", over)
	}
	return nil
}

// exactMetrics must repeat bit for bit between two runs of the same code;
// harness.alloc_mb_per_op may differ by allocTolerance.
var exactMetrics = []string{
	"core.dp_states", "core.beam_states_w8", "core.beam_states_w32", "core.resolve_states",
	"planner.delta_share", "fleet.forwarded_share", "cost_vs_dataparallel", "cost_vs_lower_bound",
}

const (
	allocTolerance = 0.005
	// determinismSeconds keeps the untraced half of the check short.
	determinismSeconds = 3
)

// checkDeterminism runs a short slice of every workload twice, traced and
// untraced, and requires the counts and quality metrics to repeat.
func checkDeterminism(picked []workload, e env) error {
	e.seconds = determinismSeconds
	bad := 0
	for _, w := range picked {
		var got [2]map[string]float64
		for i := range got {
			got[i] = map[string]float64{}
			for _, traced := range []bool{false, true} {
				rep, err := child(w, e, traced)
				if err != nil {
					return err
				}
				if !rep.Correct {
					return fmt.Errorf("%s: %d of %d ops failed", w.name, rep.Failed, rep.Attempted)
				}
				for name, v := range rep.Metrics {
					got[i][name] = v.Value
				}
			}
		}
		for _, name := range append(append([]string(nil), exactMetrics...), "harness.alloc_mb_per_op") {
			a, b := got[0][name], got[1][name]
			if a == 0 && b == 0 {
				continue // a layer this workload never calls
			}
			ok := a == b
			if name == "harness.alloc_mb_per_op" {
				ok = relDiff(a, b) <= allocTolerance
			}
			verdict := "repeats"
			if !ok {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("%-11s %-26s %.17g %.17g  %s\n", w.name, name, a, b, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics that must repeat did not", bad)
	}
	return nil
}

// writeGoldens solves every exact request of the benchmark through the
// oracle path and rewrites golden_costs.json.
func writeGoldens() error {
	gold := goldens{}
	add := func(key string) func(float64, error) error {
		return func(c float64, err error) error {
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			gold[key] = c
			fmt.Fprintf(os.Stderr, "golden: %s = %v\n", key, c)
			return nil
		}
	}
	keys, err := serveKeys()
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := add(k.key)(oracleCost(k.req)); err != nil {
			return err
		}
	}
	for i := 0; i < sweepGoldens; i++ {
		req, err := editedRequest(i)
		if err != nil {
			return err
		}
		if err := add(editKey(i))(oracleCost(req)); err != nil {
			return err
		}
	}
	// Marshal writes a map's keys in sorted order.
	data, err := json.MarshalIndent(gold, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
