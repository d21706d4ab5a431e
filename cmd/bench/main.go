// Command bench measures the solver's hot paths outside the `go test`
// harness and writes the results as JSON, giving successive PRs a stable
// perf trajectory to compare against. Each run APPENDS a timestamped entry
// to the output file's trajectory array, so BENCH_solver.json records the
// perf history across PRs instead of only the latest run. No count is gated
// here: tier-1 pins the Table I states (cmd/paper's TestTableIDeterministic)
// and, at p=32, the GPTDeep beam states (internal/planner's
// TestServedBeamPinned) by equality.
//
// Usage:
//
//	go run ./cmd/bench                      # appends to BENCH_solver.json
//	go run ./cmd/bench -out - -reps 5       # print one entry to stdout, 5 reps
//	go run ./cmd/bench -cpuprofile cpu.out  # profile the measured hot paths
//
// Measured families (minimum wall time over -reps runs):
//
//   - TableI_PaSE/<model>/p=<p>: model build, dead-end elimination
//     (cost.Eliminate, the stage the planner runs) and FINDBESTSTRATEGY over
//     the eliminated model, the paper's Table I strategy-search time, with the
//     configurations that survived (k_alive, ΣK over the vertices), the
//     elimination's vertex checks run (dee_checks) and block cells gathered
//     (dee_cells; both pinned at p=8/32 by internal/cost's
//     TestEliminationCountersPinned), the candidates the scan evaluated
//     (states), the positions that took an earlier position's table
//     (shared_positions) and the entries of the distinct tables filled
//     (distinct_entries) as extras — all exact functions of the cost
//     tables — and the fastest rep's time in the elimination (dee_ns)
//     and in each exact-DP stage (plan_ns, fill_ns, scan_ns, backsub_ns; see
//     core.StageTimes), and the bytes it allocated (alloc_bytes, the
//     runtime.MemStats.TotalAlloc delta across it).
//   - ModelBuild/<model>/p=<p>: cost-model construction alone (the table
//     builds) for the paper models and GPTDeep:12, with the
//     structural-sharing stats (vertex/edge classes, resident and shared
//     table bytes), the cells a per-occurrence build prices (nominal_cells:
//     ΣK + Σ K_u·K_v) against the cells the build priced (priced_cells: each
//     vertex class's TL row and each distinct quotient once; see
//     cost.Model.BuildCells) and the fastest rep's alloc_bytes as extras —
//     build time and bytes tracked separately from solve time.
//   - GraphPass/<model>: graph.Validate, GENERATESEQ and seq.Children, the
//     graph-only passes every build and request repeats, for the paper
//     models and GPTDeep:12, each the mean over 100 calls (validate_ns,
//     generate_ns, children_ns; ns_per_op is their sum).
//   - Fig5_GenerateSeq/<model>: the GENERATESEQ ordering alone.
//   - SolveWorkers/workers=<n>: GENERATESEQ + core.Solve with n workers at
//     GOMAXPROCS=n, over the Transformer p=32 model dead-end elimination
//     leaves (what the planner's dp route solves), built outside the timer.
//   - Beam/GPTDeep/W=<w>: GENERATESEQ + one core.SolveBeam pass at width w
//     over the gptdeep:12 model dead-end elimination leaves (what the
//     planner's beam route solves), built and eliminated outside the timer —
//     the graph whose exact DP exceeds the default table budget — with the
//     achieved optimality gap, the width, the candidates the pass evaluated
//     (states_explored, an exact function of the cost tables) and the one
//     elimination's time, checks and cells (dee_ns, dee_checks, dee_cells)
//     as extras, with the fastest rep's beam stages (plan_ns, join_ns,
//     keep_ns, backsub_ns).
package main

import (
	"cmp"
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

// graphPassRuns is how many calls a GraphPass rep times per pass.
const graphPassRuns = 100

func measure(reps int, f func() error) (float64, error) {
	ns, _, _, err := measureStats(reps, func() (struct{}, error) { return struct{}{}, f() })
	return ns, err
}

// measureStats is measure for a kernel run: it also returns what the fastest
// rep reported (its Stats), so the stage extras add up to that rep's time,
// and the bytes that rep allocated (the TotalAlloc delta, read outside the
// timer).
func measureStats[T any](reps int, f func() (T, error)) (ns, allocBytes float64, st T, err error) {
	best := time.Duration(1<<63 - 1)
	var ms runtime.MemStats
	for r := 0; r < reps; r++ {
		runtime.ReadMemStats(&ms)
		alloc := ms.TotalAlloc
		start := time.Now()
		got, err := f()
		d := time.Since(start)
		if err != nil {
			var zero T
			return 0, 0, zero, err
		}
		runtime.ReadMemStats(&ms)
		if d < best {
			best, st, allocBytes = d, got, float64(ms.TotalAlloc-alloc)
		}
	}
	return float64(best.Nanoseconds()), allocBytes, st, nil
}

// tableIRun is what one Table I rep reports: the solve's Stats, and the
// elimination's surviving ΣK, checks run and cells gathered with its wall
// time.
type tableIRun struct {
	core.Stats
	kAlive, checks, cells int
	dee                   time.Duration
}

// stageExtras adds a run's stage timings to extra, in nanoseconds: each stage
// the kernel has, which is each stage it stamped.
func stageExtras(extra map[string]float64, s core.StageTimes) map[string]float64 {
	for name, d := range map[string]time.Duration{
		"plan_ns": s.Plan, "fill_ns": s.Fill, "scan_ns": s.Scan,
		"join_ns": s.Join, "keep_ns": s.Keep, "backsub_ns": s.BackSub,
	} {
		if d > 0 {
			extra[name] = float64(d)
		}
	}
	return extra
}

// config carries the flag-derived run parameters.
type config struct {
	out        string
	reps, p    int
	notes      string
	cpuProfile string
	memProfile string
}

func run(cfg config) error {
	out, reps, p := cfg.out, cfg.reps, cfg.p
	rep := Report{
		Schema:     reportSchema,
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

	// Table I: full search (model build + elimination + solve) per paper
	// benchmark, with the paper's K, the surviving configurations and the
	// scan's work (candidates evaluated) recorded alongside the timing so the
	// trajectory shows what the DP actually iterated over.
	for _, bm := range pase.Benchmarks() {
		g := bm.Build(bm.Batch)
		ns, alloc, st, err := measureStats(reps, func() (tableIRun, error) {
			m, err := pase.NewModel(g, pase.GTX1080Ti(p), bm.Policy(p))
			if err != nil {
				return tableIRun{}, err
			}
			start := time.Now()
			el, err := cost.Eliminate(context.Background(), m, nil)
			if err != nil {
				return tableIRun{}, err
			}
			dee := time.Since(start)
			res, err := core.Solve(context.Background(), el.Model, seq.Generate(m.G), core.Options{})
			if err != nil {
				return tableIRun{}, err
			}
			return tableIRun{res.Stats, el.KAlive, el.Ran, el.Cells, dee}, nil
		})
		if err != nil {
			return fmt.Errorf("TableI %s: %w", bm.Name, err)
		}
		rep.Results = append(rep.Results, Result{
			Name:    fmt.Sprintf("TableI_PaSE/%s/p=%d", bm.Name, p),
			NsPerOp: ns,
			Reps:    reps,
			Extra: stageExtras(map[string]float64{
				"dee_ns":           float64(st.dee),
				"dee_checks":       float64(st.checks),
				"dee_cells":        float64(st.cells),
				"k_alive":          float64(st.kAlive),
				"states":           float64(st.States),
				"shared_positions": float64(st.SharedPositions),
				"distinct_entries": float64(st.TotalEntries),
				"k_effective":      float64(st.KEffective),
				"vertex_classes":   float64(st.VertexClasses),
				"edge_classes":     float64(st.EdgeClasses),
				"table_bytes":      float64(st.TableBytes),
				"alloc_bytes":      alloc,
			}, st.Stages),
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
		type build struct {
			info            cost.ModelInfo
			nominal, priced int64
		}
		ns, alloc, b, err := measureStats(reps, func() (build, error) {
			m, err := pase.NewModel(g, pase.GTX1080Ti(p), bm.Policy(p))
			if err != nil {
				return build{}, err
			}
			nominal, priced := m.BuildCells()
			return build{m.Info(), nominal, priced}, nil
		})
		if err != nil {
			return fmt.Errorf("ModelBuild %s: %w", bm.Name, err)
		}
		rep.Results = append(rep.Results, Result{
			Name:    fmt.Sprintf("ModelBuild/%s/p=%d", bm.Name, p),
			NsPerOp: ns,
			Reps:    reps,
			Extra: map[string]float64{
				"vertex_classes":     float64(b.info.VertexClasses),
				"edge_classes":       float64(b.info.EdgeClasses),
				"table_bytes":        float64(b.info.TableBytes),
				"shared_table_bytes": float64(b.info.SharedTableBytes),
				"nominal_cells":      float64(b.nominal),
				"priced_cells":       float64(b.priced),
				"alloc_bytes":        alloc,
			},
		})
	}

	// The graph-only passes every model build and dp or beam request repeats,
	// each timed over graphPassRuns calls, per paper benchmark and gptdeep:12.
	for _, bm := range append(pase.Benchmarks(), gbm) {
		g := bm.Build(bm.Batch)
		_, _, d, err := measureStats(reps, func() (d [3]time.Duration, err error) {
			sq := seq.Generate(g)
			for k, pass := range []func(){
				func() { err = cmp.Or(err, g.Validate()) },
				func() { sq = seq.Generate(g) },
				func() { seq.Children(g, sq) },
			} {
				start := time.Now()
				for range graphPassRuns {
					pass()
				}
				d[k] = time.Since(start) / graphPassRuns
			}
			return d, err
		})
		if err != nil {
			return fmt.Errorf("GraphPass %s: %w", bm.Name, err)
		}
		rep.Results = append(rep.Results, Result{
			Name:    "GraphPass/" + bm.Name,
			NsPerOp: float64(d[0] + d[1] + d[2]),
			Reps:    reps,
			Extra: map[string]float64{
				"validate_ns": float64(d[0]), "generate_ns": float64(d[1]), "children_ns": float64(d[2]),
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

	// Worker scaling of the exact kernel on the eliminated Transformer p=32
	// model built outside the timer: ordering and solve time only, at
	// GOMAXPROCS=workers.
	tbm, err := pase.BenchmarkByName("transformer")
	if err != nil {
		return err
	}
	tg := tbm.Build(tbm.Batch)
	tfull, err := pase.NewModel(tg, pase.GTX1080Ti(32), tbm.Policy(32))
	if err != nil {
		return err
	}
	tel, err := cost.Eliminate(context.Background(), tfull, nil)
	if err != nil {
		return err
	}
	tm := tel.Model
	for _, workers := range []int{1, 2, 4, 8} {
		prev := runtime.GOMAXPROCS(workers)
		ns, err := measure(reps, func() error {
			_, err := core.Solve(context.Background(), tm, seq.Generate(tm.G), core.Options{Workers: workers})
			return err
		})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return fmt.Errorf("SolveWorkers %d: %w", workers, err)
		}
		rep.Results = append(rep.Results, Result{
			Name:    fmt.Sprintf("SolveWorkers/workers=%d", workers),
			NsPerOp: ns,
			Reps:    reps,
			Extra:   map[string]float64{"gomaxprocs": float64(workers)},
		})
	}

	// Anytime beam on the GPT-scale decoder: the bounded-latency path for
	// graphs the exact DP cannot finish. One kernel pass per width
	// (GapTarget -1) over the eliminated model, built and eliminated outside
	// the timer, like SolveWorkers.
	gg := gbm.Build(gbm.Batch)
	gfull, err := pase.NewModel(gg, pase.GTX1080Ti(p), gbm.Policy(p))
	if err != nil {
		return err
	}
	start := time.Now()
	gel, err := cost.Eliminate(context.Background(), gfull, nil)
	if err != nil {
		return err
	}
	dee := time.Since(start)
	gm := gel.Model
	for _, width := range []int{8, 32} {
		var gap float64
		ns, _, st, err := measureStats(reps, func() (core.Stats, error) {
			br, err := core.SolveBeam(context.Background(), gm, seq.Generate(gm.G), core.BeamOptions{Width: width, GapTarget: -1})
			if err != nil {
				return core.Stats{}, err
			}
			gap = br.Gap
			return br.Stats, nil
		})
		if err != nil {
			return fmt.Errorf("Beam/GPTDeep W=%d: %w", width, err)
		}
		rep.Results = append(rep.Results, Result{
			Name:    fmt.Sprintf("Beam/GPTDeep/W=%d", width),
			NsPerOp: ns,
			Reps:    reps,
			Extra: stageExtras(map[string]float64{
				"gap":             gap,
				"beam_width":      float64(width),
				"states_explored": float64(st.States),
				"dee_ns":          float64(dee),
				"dee_checks":      float64(gel.Ran),
				"dee_cells":       float64(gel.Cells),
			}, st.Stages),
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

// loadTrajectory reads the output file's existing history. A missing file
// starts an empty trajectory; any other content than a trajectory is an error.
func loadTrajectory(path string) (Trajectory, error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Trajectory{Schema: trajectorySchema}, nil
	}
	if err != nil {
		return Trajectory{}, err
	}
	var traj Trajectory
	if err := json.Unmarshal(buf, &traj); err != nil || traj.Schema != trajectorySchema {
		return Trajectory{}, fmt.Errorf("bench: %s is not a %s file; move it aside to start fresh", path, trajectorySchema)
	}
	return traj, nil
}

func main() {
	var (
		out        = flag.String("out", "BENCH_solver.json", "output path, or - for stdout")
		reps       = flag.Int("reps", 3, "repetitions per benchmark (minimum is reported)")
		p          = flag.Int("p", 32, "device count for the Table I solves")
		notes      = flag.String("notes", "", "free-form context embedded in the report")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile covering the measured benchmarks to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the measured benchmarks to this file")
	)
	flag.Parse()
	if *reps < 1 {
		fmt.Fprintln(os.Stderr, "bench: -reps must be >= 1")
		os.Exit(2)
	}
	if err := run(config{
		out: *out, reps: *reps, p: *p, notes: *notes,
		cpuProfile: *cpuprofile, memProfile: *memprofile,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
