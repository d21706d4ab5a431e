// Command paper regenerates every table and figure of the PaSE paper's
// evaluation (Section IV) on the simulated substrate:
//
//	paper -table1          Table I: strategy-search time (BF vs MCMC vs PaSE)
//	paper -table2          Table II: best strategies at p=32
//	paper -fig5            Fig. 5: graph structure & ordering statistics
//	paper -fig6            Fig. 6: speedup over data parallelism (both GPUs)
//	paper -all             everything
//	paper -fast            restrict sweeps to p ≤ 16 (quick smoke run)
//	paper -csv DIR         additionally write CSV series into DIR
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pase"
	"pase/internal/report"
	"pase/internal/seq"
)

// opts selects what render regenerates and how.
type opts struct {
	table1, table2, fig5, fig6 bool
	fast                       bool
	csvDir                     string
}

func main() {
	var (
		t1   = flag.Bool("table1", false, "regenerate Table I (search times)")
		t2   = flag.Bool("table2", false, "regenerate Table II (best strategies at p=32)")
		f5   = flag.Bool("fig5", false, "regenerate Fig. 5 statistics (graph structure, ordering quality)")
		f6   = flag.Bool("fig6", false, "regenerate Fig. 6 (speedups over data parallelism)")
		all  = flag.Bool("all", false, "regenerate everything")
		fast = flag.Bool("fast", false, "restrict device sweeps to p ≤ 16")
		csv  = flag.String("csv", "", "directory to write CSV copies into")
	)
	flag.Parse()
	o := opts{table1: *t1 || *all, table2: *t2 || *all, fig5: *f5 || *all, fig6: *f6 || *all, fast: *fast, csvDir: *csv}
	if !o.table1 && !o.table2 && !o.fig5 && !o.fig6 {
		flag.Usage()
		os.Exit(2)
	}
	if err := render(os.Stdout, o); err != nil {
		fmt.Fprintf(os.Stderr, "paper: %v\n", err)
		os.Exit(1)
	}
}

// render writes the sections o selects to w, in the paper's order.
func render(w io.Writer, o opts) error {
	steps := []struct {
		on  bool
		fn  func(io.Writer, opts) error
		tag string
	}{
		{o.table1, table1, "table1"},
		{o.table2, table2, "table2"},
		{o.fig5, fig5, "fig5"},
		{o.fig6, fig6, "fig6"},
	}
	for _, s := range steps {
		if !s.on {
			continue
		}
		if err := s.fn(w, o); err != nil {
			return fmt.Errorf("%s: %w", s.tag, err)
		}
	}
	return nil
}

func (o opts) devices() []int {
	if o.fast {
		return []int{4, 8, 16}
	}
	return []int{4, 8, 16, 32, 64}
}

func (o opts) emit(w io.Writer, name string, tb *report.Table) error {
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if o.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tb.CSV(f)
}

// table1Row is one Table I row: the three searches on one model and device
// count. bf is nil when the breadth-first DP ran out of memory.
type table1Row struct {
	model string
	p     int
	bf    *time.Duration
	mcmc  time.Duration
	pase  *pase.Result
}

// table1 measures strategy-search time for breadth-first ordering, the MCMC
// (FlexFlow-substitute) search, and PaSE, per model and device count.
func table1(w io.Writer, o opts) error {
	rows, err := table1Rows(o)
	if err != nil {
		return err
	}
	tb := &report.Table{
		Title:  "Table I: time to find parallelization strategies (mins:secs.msecs)",
		Header: []string{"Model", "p", "BF", "FlexFlow(MCMC)", "PaSE (ours)"},
	}
	for _, r := range rows {
		bfCell := "OOM"
		if r.bf != nil {
			bfCell = report.Duration(*r.bf)
		}
		tb.Add(r.model, r.p, bfCell,
			report.Duration(r.mcmc), report.Duration(r.pase.SearchTime))
	}
	return o.emit(w, "table1", tb)
}

// table1Rows runs Table I's searches.
func table1Rows(o opts) ([]table1Row, error) {
	var rows []table1Row
	ctx := context.Background()
	for _, bm := range pase.Benchmarks() {
		g := bm.Build(bm.Batch)
		for _, p := range o.devices() {
			// Every column searches a prebuilt model, so the times are
			// search times: table construction is not part of the comparison.
			m, err := pase.NewModel(g, pase.GTX1080Ti(p), bm.Policy(p))
			if err != nil {
				return nil, err
			}
			r := table1Row{model: bm.Name, p: p}

			// Breadth-first ordering (naive recurrence 2).
			start := time.Now()
			if _, err := pase.Solve(ctx, pase.SolveRequest{Model: m, Opts: pase.Options{BreadthFirst: true}}); err == nil {
				d := time.Since(start)
				r.bf = &d
			} else if !errors.Is(err, pase.ErrOOM) {
				return nil, err
			}

			// MCMC seeded with the expert strategy (paper's protocol).
			mc, err := pase.Solve(ctx, pase.SolveRequest{Model: m, Opts: pase.Options{
				Method:   "mcmc",
				MCMCInit: "expert:" + bm.Family,
				MCMC:     pase.MCMCOptions{Seed: 1, MinIters: 25000},
			}})
			if err != nil {
				return nil, err
			}
			r.mcmc = mc.SearchTime

			// PaSE. Use a fresh model so memoized costs from the runs above
			// do not flatter the measurement.
			m2, err := pase.NewModel(g, pase.GTX1080Ti(p), bm.Policy(p))
			if err != nil {
				return nil, err
			}
			if r.pase, err = pase.Solve(ctx, pase.SolveRequest{Model: m2}); err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// table2 prints the best strategies at p=32 in the paper's layout.
func table2(w io.Writer, o opts) error {
	const p = 32
	for _, bm := range pase.Benchmarks() {
		g := bm.Build(bm.Batch)
		res, err := pase.Solve(context.Background(), pase.SolveRequest{
			G: g, Spec: pase.GTX1080Ti(p), Opts: pase.Options{Policy: bm.Policy(p)},
		})
		if err != nil {
			return err
		}
		tb := &report.Table{
			Title:  fmt.Sprintf("Table II (%s): best strategy on 4 nodes × 8 1080Ti (p=32)", bm.Name),
			Header: []string{"Layer", "Dimensions", "Configuration"},
		}
		for _, n := range g.Nodes {
			tb.Add(n.Name, n.Space.Names(), res.Strategy[n.ID].String())
		}
		if err := o.emit(w, "table2_"+strings.ToLower(bm.Name), tb); err != nil {
			return err
		}
	}
	return nil
}

// fig5 reports the graph-structure and ordering statistics behind the
// paper's Fig. 5 discussion, including the DenseNet worst case of §V.
func fig5(w io.Writer, o opts) error {
	tb := &report.Table{
		Title: "Fig. 5 statistics: graph sparsity and ordering quality",
		Header: []string{"Model", "|V|", "deg<5", "deg≥5",
			"M (GENERATESEQ)", "M (BF)", "K (p=8)", "K (p=64)"},
	}
	type entry struct {
		name  string
		build func() *pase.Graph
		pol   func(p int) pase.EnumPolicy
	}
	entries := []entry{}
	for _, bm := range pase.Benchmarks() {
		bm := bm
		entries = append(entries, entry{bm.Name, func() *pase.Graph { return bm.Build(bm.Batch) }, bm.Policy})
	}
	entries = append(entries, entry{
		"DenseNet (§V)",
		func() *pase.Graph { return pase.DenseNet(128, 8) },
		func(int) pase.EnumPolicy { return pase.EnumPolicy{} },
	})
	for _, e := range entries {
		g := e.build()
		low, high := 0, 0
		for d, c := range g.DegreeHistogram() {
			if d < 5 {
				low += c
			} else {
				high += c
			}
		}
		genM, bfM, k8, err := pase.OrderingStats(g, pase.GTX1080Ti(8), e.pol(8))
		if err != nil {
			return err
		}
		_, _, k64, err := pase.OrderingStats(g, pase.GTX1080Ti(64), e.pol(64))
		if err != nil {
			return err
		}
		tb.Add(e.name, g.Len(), low, high, genM, bfM, k8, k64)
	}
	if err := o.emit(w, "fig5", tb); err != nil {
		return err
	}

	// Dependent-set histogram for InceptionV3, the paper's worked example.
	g := pase.InceptionV3(128)
	st := seq.Summarize(seq.Generate(g))
	fmt.Fprintf(w, "InceptionV3 GENERATESEQ dependent-set sizes: %v (max |D∪{v}| = %d, paper: ≤ 3)\n\n",
		st.DepHistogram, st.MaxState)
	return nil
}

// fig6 regenerates the speedup-over-data-parallelism comparison on the
// simulated 1080Ti and 2080Ti clusters.
func fig6(w io.Writer, o opts) error {
	for _, gpu := range []string{"1080Ti", "2080Ti"} {
		tb := &report.Table{
			Title:  fmt.Sprintf("Fig. 6 (%s): simulated speedup over data parallelism", gpu),
			Header: []string{"Model", "p", "Expert", "FlexFlow(MCMC)", "PaSE (ours)"},
		}
		for _, bm := range pase.Benchmarks() {
			g := bm.Build(bm.Batch)
			for _, p := range o.devices() {
				spec := pase.GTX1080Ti(p)
				if gpu == "2080Ti" {
					spec = pase.RTX2080Ti(p)
				}
				// Compare is this figure as a call: the expert strategy, the
				// MCMC search seeded with it (the paper's protocol), and the
				// DP, each simulated against data parallelism.
				cmp, err := pase.Compare(context.Background(), pase.CompareRequest{
					G:       g,
					Spec:    spec,
					Opts:    pase.Options{Policy: bm.Policy(p), MCMC: pase.MCMCOptions{Seed: 1, MinIters: 25000}},
					Batch:   bm.Batch,
					Family:  bm.Family,
					Methods: []string{"expert:" + bm.Family, "mcmc", "dp"},
				})
				if err != nil {
					return err
				}
				row := []any{bm.Name, p}
				for _, e := range cmp.Entries {
					if e.Err != nil {
						return fmt.Errorf("%s p=%d %s: %w", bm.Name, p, e.Method, e.Err)
					}
					row = append(row, fmt.Sprintf("%.2f", e.Speedup))
				}
				tb.Add(row...)
			}
		}
		if err := o.emit(w, "fig6_"+strings.ToLower(gpu), tb); err != nil {
			return err
		}
	}
	return nil
}
