// Command bench measures the solver's hot paths outside the `go test`
// harness and writes the results as JSON, giving successive PRs a stable
// perf trajectory to compare against. Each run APPENDS a timestamped entry
// to the output file's trajectory array (a pre-trajectory single-object file
// is migrated in place as the first entry), so BENCH_solver.json records the
// perf history across PRs instead of only the latest run.
//
// Usage:
//
//	go run ./cmd/bench                      # appends to BENCH_solver.json
//	go run ./cmd/bench -out - -reps 5       # print one entry to stdout, 5 reps
//	go run ./cmd/bench -cpuprofile cpu.out  # profile the measured hot paths
//	go run ./cmd/bench -out - -against BENCH_solver.json
//	                                        # CI gate: fail when any Table I
//	                                        # solve or GPTDeep beam pass
//	                                        # evaluates more states than the
//	                                        # latest trajectory entry
//
// Measured families (minimum wall time over -reps runs):
//
//   - TableI_PaSE/<model>/p=<p>: model build + FINDBESTSTRATEGY, the paper's
//     Table I strategy-search time, with the candidates the bound-pruned scan
//     evaluated (states), the unpruned candidate count (scan_space), the
//     positions that took an earlier position's table (shared_positions) and
//     the entries of the distinct tables filled (distinct_entries) as extras —
//     all exact functions of the cost tables.
//   - ModelBuild/<model>/p=<p>: cost-model construction alone (the table
//     builds) for the paper models and GPTDeep:12, with the
//     structural-sharing stats (vertex/edge classes, resident and shared
//     table bytes) as extras — build time and bytes tracked separately from
//     solve time.
//   - Fig5_GenerateSeq/<model>: the GENERATESEQ ordering alone.
//   - SolveWorkers/workers=<n>: GENERATESEQ + core.Solve across worker
//     counts, over a Transformer p=32 model built outside the timer.
//   - Beam/GPTDeep/W=<w>: GENERATESEQ + one core.SolveBeam pass at width w
//     over a gptdeep:12 model built outside the timer — the graph whose exact
//     DP exceeds the default table budget — with the achieved optimality
//     gap, the width, and the candidates the pass evaluated
//     (states_explored, an exact function of the cost tables) as extras.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"pase"
	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/seq"
)

// Result is one measured benchmark.
type Result struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	Reps    int     `json:"reps"`
	// Extra carries benchmark-specific metrics (e.g. maxDepSize, states).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Trajectory is the BENCH_*.json on-disk schema: one timestamped Report per
// bench run, oldest first.
type Trajectory struct {
	Schema  string   `json:"schema"`
	Entries []Report `json:"entries"`
}

// Schema identifiers: a single run's report, and the on-disk trajectory of
// appended runs.
const (
	reportSchema     = "pase-bench/v1"
	trajectorySchema = "pase-bench-trajectory/v1"
)

// Report is one bench run's results.
type Report struct {
	Schema     string `json:"schema"`
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Notes carries free-form context, e.g. the pre-change baseline the
	// run is being compared against.
	Notes   string   `json:"notes,omitempty"`
	Results []Result `json:"results"`
}

func measure(reps int, f func() error) (float64, error) {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()), nil
}

// beamWidths are the widths of the measured (and gated) GPTDeep beam passes.
var beamWidths = []int{8, 32}

// config carries the flag-derived run parameters.
type config struct {
	out        string
	reps, p    int
	notes      string
	cpuProfile string
	memProfile string
	against    string
}

func run(cfg config) error {
	out, reps, p := cfg.out, cfg.reps, cfg.p
	rep := Report{
		Schema:     "pase-bench/v1",
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Notes:      cfg.notes,
	}

	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	// Table I: full search (model build + solve) per paper benchmark, with
	// the paper's K and the scan's work (candidates evaluated vs the
	// candidate space) recorded alongside the timing so the trajectory shows
	// what the DP actually iterated over. The solve goes to core directly:
	// Stats.ScanSpace is not on the planner's Result.
	for _, bm := range pase.Benchmarks() {
		g := bm.Build(bm.Batch)
		var st core.Stats
		ns, err := measure(reps, func() error {
			m, err := pase.NewModel(g, pase.GTX1080Ti(p), bm.Policy(p))
			if err != nil {
				return err
			}
			res, err := core.Solve(context.Background(), m, seq.Generate(m.G), core.Options{})
			if err != nil {
				return err
			}
			st = res.Stats
			return nil
		})
		if err != nil {
			return fmt.Errorf("TableI %s: %w", bm.Name, err)
		}
		rep.Results = append(rep.Results, Result{
			Name:    fmt.Sprintf("TableI_PaSE/%s/p=%d", bm.Name, p),
			NsPerOp: ns,
			Reps:    reps,
			Extra: map[string]float64{
				"states":           float64(st.States),
				"scan_space":       float64(st.ScanSpace),
				"shared_positions": float64(st.SharedPositions),
				"distinct_entries": float64(st.TotalEntries),
				"k_effective":      float64(st.KEffective),
				"vertex_classes":   float64(st.VertexClasses),
				"edge_classes":     float64(st.EdgeClasses),
				"table_bytes":      float64(st.TableBytes),
			},
		})
	}

	// Model construction alone, per paper benchmark and on gptdeep:12 (the
	// beam graph below): the structural-sharing layer makes this (and the
	// bytes it holds) a tracked trajectory metric separate from solve time.
	gbm, err := pase.BenchmarkByName("gptdeep:12")
	if err != nil {
		return err
	}
	for _, bm := range append(pase.Benchmarks(), gbm) {
		g := bm.Build(bm.Batch)
		var info cost.ModelInfo
		ns, err := measure(reps, func() error {
			m, err := pase.NewModel(g, pase.GTX1080Ti(p), bm.Policy(p))
			if err != nil {
				return err
			}
			info = m.Info()
			return nil
		})
		if err != nil {
			return fmt.Errorf("ModelBuild %s: %w", bm.Name, err)
		}
		rep.Results = append(rep.Results, Result{
			Name:    fmt.Sprintf("ModelBuild/%s/p=%d", bm.Name, p),
			NsPerOp: ns,
			Reps:    reps,
			Extra: map[string]float64{
				"vertex_classes":     float64(info.VertexClasses),
				"edge_classes":       float64(info.EdgeClasses),
				"table_bytes":        float64(info.TableBytes),
				"shared_table_bytes": float64(info.SharedTableBytes),
			},
		})
	}

	// Fig. 5: the GENERATESEQ ordering on the structurally hard graphs.
	for _, e := range []struct {
		name  string
		build func() *pase.Graph
	}{
		{"InceptionV3", func() *pase.Graph { return pase.InceptionV3(128) }},
		{"Transformer", func() *pase.Graph { return pase.Transformer(pase.BaseTransformer(64)) }},
		{"DenseNet", func() *pase.Graph { return pase.DenseNet(128, 8) }},
	} {
		g := e.build()
		maxDep := 0
		ns, err := measure(reps, func() error {
			maxDep = seq.Generate(g).MaxDepSize()
			return nil
		})
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, Result{
			Name:    "Fig5_GenerateSeq/" + e.name,
			NsPerOp: ns,
			Reps:    reps,
			Extra:   map[string]float64{"maxDepSize": float64(maxDep)},
		})
	}

	// Worker scaling of the exact kernel on a Transformer p=32 model built
	// outside the timer: ordering and solve time only.
	tbm, err := pase.BenchmarkByName("transformer")
	if err != nil {
		return err
	}
	tg := tbm.Build(tbm.Batch)
	tm, err := pase.NewModel(tg, pase.GTX1080Ti(32), tbm.Policy(32))
	if err != nil {
		return err
	}
	for _, workers := range []int{1, 2, 4, 8} {
		ns, err := measure(reps, func() error {
			_, err := core.Solve(context.Background(), tm, seq.Generate(tm.G), core.Options{Workers: workers})
			return err
		})
		if err != nil {
			return fmt.Errorf("SolveWorkers %d: %w", workers, err)
		}
		rep.Results = append(rep.Results, Result{
			Name:    fmt.Sprintf("SolveWorkers/workers=%d", workers),
			NsPerOp: ns,
			Reps:    reps,
		})
	}

	// Anytime beam on the GPT-scale decoder: the bounded-latency path for
	// graphs the exact DP cannot finish. One kernel pass per width
	// (GapTarget -1) over a model built outside the timer, like SolveWorkers.
	gg := gbm.Build(gbm.Batch)
	gm, err := pase.NewModel(gg, pase.GTX1080Ti(p), gbm.Policy(p))
	if err != nil {
		return err
	}
	for _, width := range beamWidths {
		var gap float64
		var states int64
		ns, err := measure(reps, func() error {
			br, err := core.SolveBeam(context.Background(), gm, seq.Generate(gm.G), core.BeamOptions{Width: width, GapTarget: -1})
			if err != nil {
				return err
			}
			gap, states = br.Gap, br.Stats.States
			return nil
		})
		if err != nil {
			return fmt.Errorf("Beam/GPTDeep W=%d: %w", width, err)
		}
		rep.Results = append(rep.Results, Result{
			Name:    fmt.Sprintf("Beam/GPTDeep/W=%d", width),
			NsPerOp: ns,
			Reps:    reps,
			Extra: map[string]float64{
				"gap":             gap,
				"beam_width":      float64(width),
				"states_explored": float64(states),
			},
		})
	}

	if cfg.memProfile != "" {
		f, err := os.Create(cfg.memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}

	if cfg.against != "" {
		if err := statesCheck(rep, cfg.against, p); err != nil {
			return err
		}
	}

	if out == "-" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		_, err = os.Stdout.Write(buf)
		return err
	}
	traj, err := loadTrajectory(out)
	if err != nil {
		return err
	}
	traj.Entries = append(traj.Entries, rep)
	buf, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	for _, r := range rep.Results {
		fmt.Printf("%-40s %14.0f ns/op\n", r.Name, r.NsPerOp)
	}
	fmt.Printf("wrote %s (entry %d of trajectory)\n", out, len(traj.Entries))
	return nil
}

// statesCheck is the CI gate: every Table I solve of this run is compared on
// its states extra, and both GPTDeep beam passes on states_explored, with the
// -against trajectory. The counts are functions of the cost tables, so the
// gate needs no factor, no matching environment and no retry — any increase is
// a real loss of pruning. (Wall clock is the referee's: bash benchmark/run.sh.)
// A missing file is a skip (the gate cannot block a fresh checkout), but an
// existing file that fails to parse is an error — a corrupt BENCH_solver.json
// must not silently disable the gate.
func statesCheck(rep Report, against string, p int) error {
	if _, err := os.Stat(against); os.IsNotExist(err) {
		fmt.Fprintf(os.Stderr, "bench: no trajectory at %s; skipping the states check\n", against)
		return nil
	}
	traj, err := loadTrajectory(against)
	if err != nil {
		return fmt.Errorf("bench: -against %s: %w", against, err)
	}
	for _, bm := range pase.Benchmarks() {
		if err := statesCheckOne(rep, traj, against, fmt.Sprintf("TableI_PaSE/%s/p=%d", bm.Name, p), "states"); err != nil {
			return err
		}
	}
	for _, width := range beamWidths {
		if err := statesCheckOne(rep, traj, against, fmt.Sprintf("Beam/GPTDeep/W=%d", width), "states_explored"); err != nil {
			return err
		}
	}
	return nil
}

// findResult returns the named benchmark of one run.
func findResult(rs []Result, name string) (Result, bool) {
	for _, r := range rs {
		if r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}

// statesCheckOne fails when this run's named solve evaluated more states —
// its extra of that name — than the latest trajectory entry that recorded the
// count.
func statesCheckOne(rep Report, traj Trajectory, against, name, extra string) error {
	cur, ok := findResult(rep.Results, name)
	if !ok {
		return fmt.Errorf("bench: this run did not measure %s", name)
	}
	for i := len(traj.Entries) - 1; i >= 0; i-- {
		e := traj.Entries[i]
		r, ok := findResult(e.Results, name)
		base, has := r.Extra[extra]
		if !ok || !has {
			continue
		}
		fmt.Fprintf(os.Stderr, "bench: %s %.0f %s vs %.0f (%s entry)\n", name, cur.Extra[extra], extra, base, e.Date)
		if cur.Extra[extra] > base {
			return fmt.Errorf("bench: %s evaluated %.0f %s, the %s trajectory entry %.0f: the search prunes less than it did",
				name, cur.Extra[extra], extra, e.Date, base)
		}
		return nil
	}
	fmt.Fprintf(os.Stderr, "bench: no %s recorded for %s in %s; skipping the states check\n", extra, name, against)
	return nil
}

// loadTrajectory reads the output file's existing history. A missing file
// starts an empty trajectory; a pre-trajectory single-report file (the
// original pase-bench/v1 layout) is migrated as the first entry.
func loadTrajectory(path string) (Trajectory, error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Trajectory{Schema: trajectorySchema}, nil
	}
	if err != nil {
		return Trajectory{}, err
	}
	var traj Trajectory
	if err := json.Unmarshal(buf, &traj); err == nil && traj.Schema == trajectorySchema {
		return traj, nil
	}
	var old Report
	if err := json.Unmarshal(buf, &old); err == nil && old.Schema == reportSchema {
		return Trajectory{Schema: trajectorySchema, Entries: []Report{old}}, nil
	}
	return Trajectory{}, fmt.Errorf("bench: %s is neither a %s trajectory nor a %s report; move it aside to start fresh", path, trajectorySchema, reportSchema)
}

func main() {
	var (
		out        = flag.String("out", "BENCH_solver.json", "output path, or - for stdout")
		reps       = flag.Int("reps", 3, "repetitions per benchmark (minimum is reported)")
		p          = flag.Int("p", 32, "device count for the Table I solves")
		notes      = flag.String("notes", "", "free-form context embedded in the report")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile covering the measured benchmarks to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the measured benchmarks to this file")
		against    = flag.String("against", "", "trajectory file whose latest entries gate this run: Table I DP states and GPTDeep beam states may not exceed them")
	)
	flag.Parse()
	if *reps < 1 {
		fmt.Fprintln(os.Stderr, "bench: -reps must be >= 1")
		os.Exit(2)
	}
	if err := run(config{
		out: *out, reps: *reps, p: *p, notes: *notes,
		cpuProfile: *cpuprofile, memProfile: *memprofile,
		against: *against,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
