package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestBatchMedianIgnoresABurst(t *testing.T) {
	// Six batches of two ops at 10 ms each; a burst triples two batches.
	wall := []float64{10, 10, 10, 10, 30, 30, 30, 30, 10, 10, 10, 10, 9}
	got := batchMedian(wall, 2, func(b []float64) float64 { return float64(len(b)) / (sum(b) / 1e3) })
	if got != 100 {
		t.Errorf("throughput = %v ops/s, want 100: the burst and the partial batch must not move it", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct, n := tail(xs)
	if v != 90 || pct != 90 || n != 100 {
		t.Errorf("tail of 1..100 = (%v, p%v, n=%v), want (90, p90, 100)", v, pct, n)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond < tailMinBeyond {
		t.Errorf("%d samples beyond the tail, want at least %d", beyond, tailMinBeyond)
	}
	if v, pct, _ := tail(xs[:15]); v != 8 || pct != 50 {
		t.Errorf("tail of 15 samples = (%v, p%v), want the median (8, p50)", v, pct)
	}
}

func TestGeomeanIgnoresOrder(t *testing.T) {
	a := geomean([]float64{0.3, 0.7, 0.9, 0.11})
	b := geomean([]float64{0.11, 0.9, 0.3, 0.7})
	if a != b {
		t.Errorf("geomean depends on order: %v vs %v", a, b)
	}
}

func TestSelfTimeNestedAndSiblings(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Req: 0, Name: opSpan, Start: 0, End: 100},
		{ID: 1, Parent: 0, Req: 0, Name: "cost.build", Start: 10, End: 30},
		{ID: 2, Parent: 0, Req: 0, Name: "core.dp", Start: 30, End: 90},
		{ID: 3, Parent: 2, Req: 0, Name: "inner", Start: 40, End: 60},
		// Overlapping siblings are counted once.
		{ID: 4, Parent: 2, Req: 0, Name: "inner", Start: 50, End: 70},
	}
	want := []float64{20, 20, 30, 20, 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := unattributed(spans); got != 0.2 {
		t.Errorf("unattributed = %v, want 0.2", got)
	}
	if got := share(spans, func(n string) bool { return n == "core.dp" }); got != 0.6 {
		t.Errorf("core share = %v, want 0.6", got)
	}
}

func TestTracerRecordsParentsAndNilTracerRuns(t *testing.T) {
	tr := newTracer()
	calls := 0
	body := func(tr *tracer) {
		tr.op(func() {
			tr.do("a", "", func() { tr.do("b", "x", func() { calls++ }) })
			tr.do("c", "", func() { calls++ })
		})
	}
	body(tr)
	body(nil)
	if calls != 4 {
		t.Fatalf("bodies ran %d times, want 4", calls)
	}
	var got []int
	for _, s := range tr.spans {
		got = append(got, s.Parent)
		if s.Req != 0 || s.End < s.Start {
			t.Errorf("span %+v: want op 0 and End >= Start", s)
		}
	}
	if want := []int{-1, 0, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("parents = %v, want %v", got, want)
	}
	joined := appendSpans(tr.spans, tr.spans)
	if last := joined[len(joined)-1]; last.ID != 7 || last.Parent != 4 || last.Req != 1 {
		t.Errorf("appended span = %+v, want id 7, parent 4, op 1", last)
	}
}

// fakeKeys is a fleet where the addressed daemon owns five registry keys and
// its peer two.
func fakeKeys() []serveKey {
	var keys []serveKey
	for i := 0; i < 7; i++ {
		keys = append(keys, serveKey{key: registryKey("m", i), forwarded: i >= 5})
	}
	for _, s := range serveSpecs {
		keys = append(keys, serveKey{key: "spec:" + s, isSpec: true})
	}
	return keys
}

func TestServePatternIsSeededAndDominatedByLocalHits(t *testing.T) {
	keys := fakeKeys()
	a, err := servePattern(7, keys)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := servePattern(7, keys)
	c, _ := servePattern(8, keys)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different patterns:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 7 and 8 give the same order %v", a)
	}
	count := map[string]int{}
	for _, ki := range a {
		count[keys[ki].class()]++
	}
	want := map[string]int{"reg-local": slotsLocal, "spec-local": len(serveSpecs), "reg-forward": slotsForward}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("slot classes = %v, want %v", count, want)
	}
	if share := float64(count["reg-local"]) / float64(len(a)); share < 0.6 {
		t.Errorf("cheapest class holds %.0f%% of the slots, want at least 60%%", 100*share)
	}
	if _, err := servePattern(1, keys[:5]); err == nil {
		t.Error("a fleet whose peer owns nothing must be refused")
	}
}

func TestSweepOrderIsAPermutationOfAFixedSet(t *testing.T) {
	o1, o2 := sweepOrder(1, 96), sweepOrder(2, 96)
	if !reflect.DeepEqual(o1, sweepOrder(1, 96)) {
		t.Error("seed 1 gives two different edit orders")
	}
	if reflect.DeepEqual(o1, o2) {
		t.Error("seeds 1 and 2 give the same edit order")
	}
	seen := map[int]bool{}
	for _, i := range o1 {
		seen[i] = true
	}
	for _, i := range o2 {
		if !seen[i] || i < 0 || i >= 96 {
			t.Fatalf("edit %d of seed 2 is outside seed 1's set", i)
		}
	}
	if editFactor(3) == editFactor(4) || editFactor(0) <= 1 {
		t.Error("edit factors must be distinct and above 1")
	}
}

func TestPlanKeepsWholeBatches(t *testing.T) {
	for _, c := range []struct {
		rate, seconds float64
		want          plan
	}{
		{1.0, 20, plan{20, 1}},
		{0.72, 20, plan{14, 1}},
		{4.8, 20, plan{96, 6}},
		{36, 20, plan{720, 48}},
		{1.0, 0.2, plan{1, 1}},
	} {
		got := planFor(c.rate, c.seconds)
		if got != c.want {
			t.Errorf("planFor(%v, %v) = %+v, want %+v", c.rate, c.seconds, got, c.want)
		}
		if got.ops%got.perBatch != 0 {
			t.Errorf("planFor(%v, %v): %d ops do not fill batches of %d", c.rate, c.seconds, got.ops, got.perBatch)
		}
		if c.seconds == 20 && got.ops/got.perBatch < minBatches {
			t.Errorf("planFor(%v, %v): %d batches, want at least %d", c.rate, c.seconds, got.ops/got.perBatch, minBatches)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}

	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the code's default is %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200", w.name, len(w.why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		checkName(d.name)
		got := f.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, got, d)
		}
		if !unit.MatchString(d.unit) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q, bound %v", d.name, d.unit, d.bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		checkName(d.name)
		got := f.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, got, d)
		}
		if !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("per-layer metric %s: unit %q, better %q", d.name, d.unit, d.better)
		}
	}
}

func TestUnknownPerLayerMetricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("setting a metric BENCHMARK.json does not list must panic")
		}
	}()
	newTraceResult().set("core.no_such_metric", 1)
}
