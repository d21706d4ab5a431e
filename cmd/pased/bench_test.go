package main

import (
	"bytes"
	"crypto/sha256"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"pase"
)

// The serving path's benchmarks: one row per route a request takes through
// pased, driven through the daemon's own mux with no socket, each reporting
// ns/op, B/op and allocs/op:
//
//	go test -run '^$' -bench Serve -benchmem ./cmd/pased

// benchWriter is a ResponseWriter that keeps nothing of the body, so a row's
// B/op is the daemon's own.
type benchWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *benchWriter) Header() http.Header    { return w.h }
func (w *benchWriter) WriteHeader(status int) { w.status = status }
func (w *benchWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// benchBody is a request body rewound for every request.
type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }

// benchClient posts bodies to one server's mux, reusing its request, writer
// and body reader, so what a request allocates is the daemon's.
type benchClient struct {
	mux  http.Handler
	reqs map[string]*http.Request
	w    benchWriter
	body benchBody
}

func newBenchClient(s *server) *benchClient {
	return &benchClient{mux: s.mux(), reqs: map[string]*http.Request{}, w: benchWriter{h: http.Header{}}}
}

// post serves body on route with its length declared, fails tb unless the
// answer is a 200, and returns the answer's length.
func (c *benchClient) post(tb testing.TB, route string, body []byte) int {
	req := c.reqs[route]
	if req == nil {
		req = httptest.NewRequest(http.MethodPost, route, nil)
		c.reqs[route] = req
	}
	c.body.Reset(body)
	req.Body, req.ContentLength = &c.body, int64(len(body))
	clear(c.w.h)
	c.w.status, c.w.n = 0, 0
	c.mux.ServeHTTP(&c.w, req)
	if c.w.status != http.StatusOK {
		tb.Fatalf("%s %.60s: status %d", route, body, c.w.status)
	}
	return c.w.n
}

// warmHit posts body until its answer is stored bytes: a solve, then the
// encoded hit those bytes are kept from.
func (c *benchClient) warmHit(tb testing.TB, body []byte) {
	c.post(tb, "/v1/solve", body)
	c.post(tb, "/v1/solve", body)
}

const (
	benchRegistryBody = `{"model":"transformer","gpus":32}`
	benchBatchBody    = `{"requests":[{"model":"alexnet","gpus":8},{"model":"rnnlm","gpus":8}]}`
)

// transformerSpec is examples/specs/transformer.json, the largest example.
func transformerSpec(tb testing.TB) string {
	spec, err := os.ReadFile("../../examples/specs/transformer.json")
	if err != nil {
		tb.Fatal(err)
	}
	return string(spec)
}

// benchHits serves body b.N times once its answer is stored bytes.
func benchHits(b *testing.B, body []byte) {
	c := newBenchClient(newServer(pase.NewPlanner(pase.PlannerConfig{}), 64, 0))
	c.warmHit(b, body)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		c.post(b, "/v1/solve", body)
	}
}

// A registry request answered from stored bytes: hash → memo → lookup → bytes.
func BenchmarkServeRegistryHit(b *testing.B) { benchHits(b, []byte(benchRegistryBody)) }

// An inline-spec request answered from stored bytes: the same route as a
// registry hit, with a 159 KB body to read and hash.
func BenchmarkServeSpecHit(b *testing.B) { benchHits(b, []byte(specBody(transformerSpec(b)))) }

// A registry request the memo knows and the result cache holds, but with no
// stored bytes — the first hit after a solve: lowered again and encoded.
func BenchmarkServeMemoHit(b *testing.B) {
	s := newServer(pase.NewPlanner(pase.PlannerConfig{}), 64, 0)
	c := newBenchClient(s)
	body := []byte(benchRegistryBody)
	c.warmHit(b, body)
	ent, _ := memoEntryOf(s, benchRegistryBody)
	ent.from, ent.head, ent.tail = nil, nil, nil
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		s.memo.put(sha256.Sum256(body), ent)
		c.post(b, "/v1/solve", body)
	}
}

// A cold solve of each Table I model at p=8 on a daemon that has seen nothing.
func BenchmarkServeColdMiss(b *testing.B) {
	for _, model := range []string{"alexnet", "inceptionv3", "rnnlm", "transformer"} {
		body := []byte(`{"model":"` + model + `","gpus":8}`)
		b.Run(model, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				b.StopTimer()
				c := newBenchClient(newServer(pase.NewPlanner(pase.PlannerConfig{}), 64, 0))
				b.StartTimer()
				c.post(b, "/v1/solve", body)
			}
		})
	}
}

// An inline spec one node's flops away from the planner's last dp solve: the
// two bodies alternate, each evicting the other's result, so every request
// is a delta re-solve of the other's retained tables.
func BenchmarkServeDeltaMiss(b *testing.B) {
	spec := transformerSpec(b)
	edited := strings.Replace(spec, `"flops_per_point": 0.01,`, `"flops_per_point": 0.02,`, 1)
	if edited == spec {
		b.Fatal("transformer.json has no node to edit")
	}
	pl := pase.NewPlanner(pase.PlannerConfig{ResultCacheSize: 1})
	c := newBenchClient(newServer(pl, 64, 0))
	bodies := [2][]byte{[]byte(specBody(spec)), []byte(specBody(edited))}
	c.post(b, "/v1/solve", bodies[0])
	c.post(b, "/v1/solve", bodies[1])
	if st := pl.Stats(); st.DeltaResolves != 1 {
		b.Fatalf("the edited spec was not a delta re-solve: %+v", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		c.post(b, "/v1/solve", bodies[i%2])
	}
}

// A batch of two registry requests, each answered from stored bytes.
func BenchmarkServeBatch(b *testing.B) {
	c := newBenchClient(newServer(pase.NewPlanner(pase.PlannerConfig{}), 64, 0))
	c.warmHit(b, []byte(`{"model":"alexnet","gpus":8}`))
	c.warmHit(b, []byte(`{"model":"rnnlm","gpus":8}`))
	body := []byte(benchBatchBody)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		c.post(b, "/v1/batch", body)
	}
}
