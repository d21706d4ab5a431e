package planner

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"pase/internal/machine"
	"pase/internal/models"
)

// slowReq is a request whose cold solve (model build + DP) takes long enough
// that a second caller can reliably join its flight mid-solve.
func slowReq() Request {
	return Request{G: models.InceptionV3(128), Spec: machine.GTX1080Ti(32)}
}

func TestFollowerDetachesWhileLeaderFinishes(t *testing.T) {
	// Singleflight semantics under cancellation: a follower that joined an
	// in-flight identical solve and then cancels must return promptly with
	// context.Canceled, while the leader's solve runs to completion and is
	// cached for everyone else. The leader's solve is held 300ms so it is
	// still running when the follower detaches.
	pl := New(Config{FaultPlan: mustFaultPlan(t, "solve:latency:300ms:1")})

	type outcome struct {
		res *Result
		err error
		at  time.Time
	}
	leader := make(chan outcome, 1)
	go func() {
		res, err := pl.Solve(context.Background(), slowReq())
		leader <- outcome{res, err, time.Now()}
	}()

	// Wait until the leader's flight is registered, then join it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		pl.mu.Lock()
		inFlight := len(pl.solveFlights) > 0
		pl.mu.Unlock()
		if inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader flight never appeared")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	follower := make(chan outcome, 1)
	go func() {
		res, err := pl.Solve(ctx, slowReq())
		follower <- outcome{res, err, time.Now()}
	}()
	// Give the follower a beat to register as a dedup waiter, then cancel it.
	for {
		if st := pl.Stats(); st.DedupWaits >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancelled := time.Now()
	cancel()

	select {
	case out := <-follower:
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("follower returned %v, want context.Canceled", out.err)
		}
		if lat := out.at.Sub(cancelled); lat > 100*time.Millisecond {
			t.Fatalf("follower detach latency %v, want < 100ms", lat)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower did not return")
	}
	// A waiter that was not the last leaves the flight for later requests.
	pl.mu.Lock()
	flights := len(pl.solveFlights)
	pl.mu.Unlock()
	if flights != 1 {
		t.Fatalf("%d flights after a follower detached, want the leader's", flights)
	}

	// The leader is unaffected: its solve completes and lands in the cache.
	select {
	case out := <-leader:
		if out.err != nil {
			t.Fatalf("leader failed after follower detached: %v", out.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("leader never completed")
	}
	st := pl.Stats()
	if st.Solves != 1 || st.Cancelled != 1 {
		t.Fatalf("stats after detach: %+v", st)
	}
	hit, err := pl.Solve(context.Background(), slowReq())
	if err != nil || !hit.Cached {
		t.Fatalf("post-detach request not served from cache (err=%v)", err)
	}
}

// Kept by hand: no mutant reaches cancellation polling.
func TestLastWaiterCancellationAbortsFlightAndNothingIsCached(t *testing.T) {
	// When every interested caller has cancelled, the flight context is
	// cancelled too: the solve aborts instead of burning CPU for nobody, the
	// error is not cached, and a later identical request starts a fresh
	// solve. The first solve is held at the solve site by a latency only the
	// cancel ends, so the cancel lands mid-solve on any host.
	pl := New(Config{FaultPlan: mustFaultPlan(t, "solve:latency:1m:1")})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := pl.Solve(ctx, slowReq())
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		pl.mu.Lock()
		inFlight := len(pl.solveFlights) > 0
		pl.mu.Unlock()
		if inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flight never appeared")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the underlying work start
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request did not return")
	}
	// The aborted flight must drain: wait for its goroutine to observe the
	// cancellation and unregister, then confirm nothing was recorded as a
	// completed solve or cached result.
	for {
		pl.mu.Lock()
		inFlight := len(pl.solveFlights) > 0
		pl.mu.Unlock()
		if !inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("aborted flight never unregistered")
		}
		time.Sleep(time.Millisecond)
	}
	if st := pl.Stats(); st.Solves != 0 {
		t.Fatalf("aborted flight recorded %d completed solves", st.Solves)
	}
	// Exactly one cancellation for one cancelled caller — the solve flight's
	// internal model wait unwinding must not double-count it, whichever
	// phase (model build or DP) the cancel landed in.
	if st := pl.Stats(); st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d for one cancelled request, want 1", st.Cancelled)
	}
	res, err := pl.Solve(context.Background(), slowReq())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("request after an aborted flight was served from cache")
	}
}

func TestSolveBatchCancellationFailsAllEntries(t *testing.T) {
	// Every solve is held at the solve site by a latency only the cancel
	// ends, so no entry can finish before it on any host.
	pl := New(Config{FaultPlan: mustFaultPlan(t, "solve:latency:1m")})
	ctx, cancel := context.WithCancel(context.Background())
	reqs := []Request{slowReq(), alexReq(8), rnnReq(8)}
	var wg sync.WaitGroup
	var items []BatchItem
	wg.Add(1)
	go func() {
		defer wg.Done()
		items = pl.SolveBatch(ctx, reqs)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	wg.Wait()
	for i, it := range items {
		if it.Err == nil {
			continue // an entry may have finished before the cancel — fine
		}
		if !errors.Is(it.Err, context.Canceled) {
			t.Fatalf("entry %d: %v, want context.Canceled", i, it.Err)
		}
	}
	// At least the first entry cannot have completed: its solve is held.
	if items[0].Err == nil {
		t.Fatal("InceptionV3 p=32 entry claims to have solved through a held solve")
	}
}

// Kept by hand: no mutant reaches cancellation polling.
func TestPreCancelledRequestDoesNotTouchThePlanner(t *testing.T) {
	pl := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pl.Solve(ctx, alexReq(8)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	req := alexReq(8)
	if _, err := pl.Compare(ctx, CompareRequest{G: req.G, Spec: req.Spec, Methods: []string{"dp"}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compare: got %v, want context.Canceled", err)
	}
	if st := pl.Stats(); st != (Stats{}) {
		t.Fatalf("pre-cancelled request touched stats: %+v", st)
	}
}
