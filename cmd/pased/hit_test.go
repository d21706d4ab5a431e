package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pase"
	"pase/internal/fleet"
)

// TestRegistryHitAllocatesLessThanItsAnswer: a hit served from stored bytes
// writes them from a pooled buffer, so over many hits it allocates less per
// hit than the answer is long — a copy of the answer per hit would not.
func TestRegistryHitAllocatesLessThanItsAnswer(t *testing.T) {
	c := newBenchClient(newServer(pase.NewPlanner(pase.PlannerConfig{}), 64, 0))
	body := []byte(benchRegistryBody)
	c.warmHit(t, body)
	answer := c.post(t, "/v1/solve", body)
	const hits = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range hits {
		c.post(t, "/v1/solve", body)
	}
	runtime.ReadMemStats(&after)
	if perHit := (after.TotalAlloc - before.TotalAlloc) / hits; perHit >= uint64(answer) {
		t.Fatalf("a hit allocates %d B, want fewer than its answer's %d", perHit, answer)
	}
}

// TestConcurrentHitsMatchReferenceEncoder: hits on one memo entry, served
// concurrently from pooled buffers while a batch and a fresh solve run
// alongside, each come back as the reference encoder's bytes, and equal
// bar total_ns: no answer is written from a buffer another request holds.
func TestConcurrentHitsMatchReferenceEncoder(t *testing.T) {
	ts := newTestServer(t)
	const body = `{"model":"alexnet","gpus":8}`
	for range 2 { // the solve, then the hit whose bytes are stored
		if status, out := postRaw(t, ts.URL+"/v1/solve", body); status != http.StatusOK {
			t.Fatalf("warm-up: %d %s", status, out)
		}
	}
	_, first := postRaw(t, ts.URL+"/v1/solve", body)
	want := wantReferenceBytes(t, "stored hit", first)
	wantMasked := totalNsLine.ReplaceAll(first, nil)

	const hitters, reps = 8, 50
	errs := make(chan error, hitters+2)
	var wg sync.WaitGroup
	wg.Add(hitters + 2)
	for range hitters {
		go func() {
			defer wg.Done()
			for rep := range reps {
				status, got, err := postRawNoFatal(ts.URL+"/v1/solve", body)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, got)
				}
				if err == nil {
					_, err = referenceBytes(got)
				}
				if err == nil && !bytes.Equal(totalNsLine.ReplaceAll(got, nil), wantMasked) {
					err = fmt.Errorf("differs from the first stored hit bar total_ns:\n%s", got)
				}
				if err != nil {
					errs <- fmt.Errorf("hit %d: %w", rep, err)
					return
				}
			}
		}()
	}
	go func() {
		defer wg.Done()
		status, got, err := postRawNoFatal(ts.URL+"/v1/batch", `{"requests":[`+body+`,`+body+`]}`)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, got)
		}
		var br struct{ Results []solveResponse }
		if err == nil {
			err = json.Unmarshal(got, &br)
		}
		for i := range br.Results {
			if err == nil && !sameAnswer(&br.Results[i], want) {
				err = fmt.Errorf("entry %d is not the stored answer", i)
			}
		}
		if err == nil && len(br.Results) != 2 {
			err = fmt.Errorf("%d answers, want 2", len(br.Results))
		}
		if err != nil {
			errs <- fmt.Errorf("batch: %w", err)
		}
	}()
	go func() {
		defer wg.Done()
		status, got, err := postRawNoFatal(ts.URL+"/v1/solve", `{"model":"rnnlm","gpus":8}`)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, got)
		}
		if err == nil {
			_, err = referenceBytes(got)
		}
		if err != nil {
			errs <- fmt.Errorf("fresh solve: %w", err)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// postRawNoFatal is postRaw for goroutines other than the test's.
func postRawNoFatal(url, body string) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// sameAnswer reports whether a and b encode alike bar total_ns.
func sameAnswer(a, b *solveResponse) bool {
	x, y := *a, *b
	x.Timings.Total, y.Timings.Total = 0, 0
	ex, errX := encodeJSON(&x)
	ey, errY := encodeJSON(&y)
	return errX == nil && errY == nil && bytes.Equal(ex, ey)
}

// TestShortBodyIs400: a body that ends before the length it declared is a
// bad request on every route that reads one.
func TestShortBodyIs400(t *testing.T) {
	mux := newServer(pase.NewPlanner(pase.PlannerConfig{}), 64, 0).mux()
	const body = `{"model":"alexnet","gpus":4}`
	for _, route := range []string{"/v1/solve", fleet.InternalSolvePath, "/v1/batch", "/v1/compare"} {
		req := httptest.NewRequest(http.MethodPost, route, strings.NewReader(body))
		req.ContentLength = int64(len(body) + 1)
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"bad_request"`) {
			t.Fatalf("%s with a body one byte short: %d %s, want 400 bad_request", route, w.Code, w.Body)
		}
	}
}

// TestChunkedBodyOverBoundIs413: a body that does not declare its length is
// read through the bound: one byte over maxBodyBytes is 413 too_large, and
// the bound itself is served.
func TestChunkedBodyOverBoundIs413(t *testing.T) {
	ts := newTestServer(t)
	const open, rest = `{"model":"alexnet",`, `"gpus":4}`
	for size, want := range map[int]int{maxBodyBytes + 1: http.StatusRequestEntityTooLarge, maxBodyBytes: http.StatusOK} {
		padded := open + strings.Repeat(" ", size-len(open)-len(rest)) + rest
		// A reader that hides its length makes the client send it chunked.
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", struct{ io.Reader }{strings.NewReader(padded)})
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want || (want != http.StatusOK && out["code"] != "too_large") {
			t.Fatalf("chunked body of %d bytes: %d %v, want %d", size, resp.StatusCode, out, want)
		}
	}
}
