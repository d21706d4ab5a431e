package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"pase/internal/cost"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/seq"
)

// transformerP32Model builds the paper's heaviest solve input: the
// Transformer at p=32, the workload the ROADMAP's serving scenario needs to
// be able to abandon when a client disconnects.
func transformerP32Model(t *testing.T) *cost.Model {
	t.Helper()
	g := models.Transformer(models.BaseTransformer(64))
	m, err := cost.NewModel(g, machine.GTX1080Ti(32), itspace.EnumPolicy{MaxSplitDims: 2})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Kept by hand: no mutant reaches cancellation polling.
func TestCancelMidDPOnTransformerReturnsPromptlyWithoutLeaks(t *testing.T) {
	// The acceptance criterion: a ctx cancelled mid-DP on Transformer p=32
	// returns context.Canceled promptly (<100ms from the cancel) and leaves
	// no fill goroutines behind. The fill is the linear scan, and an entry's
	// argmin and a base rebuild are each far shorter than the poll interval,
	// so the bound holds serial and parallel alike.
	m := transformerP32Model(t)
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cancelMidDP(t, m, workers)
		})
	}
}

func cancelMidDP(t *testing.T, m *cost.Model, workers int) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		err error
		at  time.Time
	}
	res := make(chan outcome, 1)
	go func() {
		_, err := Solve(ctx, m, seq.Generate(m.G), Options{Workers: workers})
		res <- outcome{err, time.Now()}
	}()

	// Let the DP get properly underway (the cold solve takes 150 ms or more
	// on the hardware this was written on), then cancel it mid-fill.
	time.Sleep(20 * time.Millisecond)
	cancelled := time.Now()
	cancel()

	select {
	case out := <-res:
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("cancelled solve returned %v, want context.Canceled", out.err)
		}
		if lat := out.at.Sub(cancelled); lat > 100*time.Millisecond {
			t.Fatalf("cancellation latency %v, want < 100ms", lat)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled solve did not return within 5s")
	}

	// No goroutine leak: the fill workers all drain before Solve returns.
	// Allow the runtime a few GC/scheduler beats to retire exiting stacks.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > baseline %d after cancelled solve", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// The class detection ahead of a fill polls like the fill does: on a source of
// 4 M costs — larger than any table of the paper models — whose rows are all
// one class (the hash pass reads every row, the exact compare every row
// again), it polls at least once per cancelCheckMask+1 rows, and a stop that
// arrives in the middle of the hash pass or of the compare pass ends it
// within the 100 ms the solve's cancellation latency is held to.
//
// Kept by hand: no mutant reaches cancellation polling.
func TestClassDetectionStopsPromptlyOnALargeSource(t *testing.T) {
	const kv, rows = 64, 1 << 16
	kd := []int{256, 256}
	srcs := []rowSrc{{vals: make([]float64, rows*kv), w: kv, digit: []int{0, 1}, dim: kd, cls: [][]int32{nil, nil}}}
	serial := func(total int64, f func(lo, hi int64)) { f(0, total) }

	polls := 0
	start := time.Now()
	_, reps := digitClasses(srcs, kd, serial, func() bool { polls++; return false })
	t.Logf("uncancelled: %v, %d polls", time.Since(start), polls)
	if len(reps[0]) != 1 || len(reps[1]) != 1 {
		t.Fatalf("%d and %d classes on a constant source, want 1 and 1", len(reps[0]), len(reps[1]))
	}
	hashPolls := rows / (cancelCheckMask + 1)
	if polls < hashPolls+2*255 {
		t.Fatalf("%d polls, want one per %d rows of the hash pass (%d) and one per compared value (510)", polls, cancelCheckMask+1, hashPolls)
	}
	for _, at := range []int{hashPolls / 2, hashPolls + 255} {
		calls := 0
		var fired time.Time
		digitClasses(srcs, kd, serial, func() bool {
			if calls++; calls == at {
				fired = time.Now()
			}
			return calls >= at
		})
		if lat := time.Since(fired); lat > 100*time.Millisecond {
			t.Fatalf("stop at poll %d of %d: returned %v later, want < 100ms", at, polls, lat)
		}
		if calls > at+len(kd) {
			t.Fatalf("stop at poll %d: %d more polls, the passes went on", at, calls-at)
		}
	}
}

// Kept by hand: no mutant reaches cancellation polling.
func TestPreCancelledContextFailsBeforeFilling(t *testing.T) {
	m := transformerP32Model(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Solve(ctx, m, seq.Generate(m.G), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("pre-cancelled solve took %v", d)
	}
}

func TestDeadlineExceededSurfacesAsSuch(t *testing.T) {
	m := transformerP32Model(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := Solve(ctx, m, seq.Generate(m.G), Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

func TestBackgroundContextSolveUnchanged(t *testing.T) {
	// The ctx plumbing must not perturb results: Solve with Background
	// equals Solve under a live, never-cancelled context on a small model.
	g := models.AlexNet(128)
	m, err := cost.NewModel(g, machine.GTX1080Ti(8), itspace.EnumPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Solve(context.Background(), m, seq.Generate(m.G), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, err := Solve(ctx, m, seq.Generate(m.G), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Fatalf("cost differs: %v vs %v", a.Cost, b.Cost)
	}
	for v := range a.Idx {
		if a.Idx[v] != b.Idx[v] {
			t.Fatalf("node %d choice differs", v)
		}
	}
}
