package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public function. Spans of one op share Req; Parent is the span that
// was open when this one began (-1 for an op's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// opSpan is the name of the root span of one op.
const opSpan = "op"

// tracer keeps spans in memory until the run ends. It serves the single
// goroutine that drives a workload, so the open-span stack needs no lock.
// A nil tracer records nothing: the untraced pass of a slice runs the same
// code, and the difference between the two passes is the tracing overhead.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	req   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), req: -1} }

// op runs f as op number req under a root span.
func (t *tracer) op(f func()) {
	if t != nil {
		t.req++
	}
	t.do(opSpan, "", f)
}

// do runs f inside a span.
func (t *tracer) do(name, detail string, f func()) {
	if t == nil {
		f()
		return
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Detail: detail})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.epoch))
	f()
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover (overlapping children are counted
// once).
func selfTimes(spans []span) []float64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, end := int64(0), s.Start
		for _, k := range ks {
			from, to := max(k.Start, end), min(k.End, s.End)
			if to > from {
				covered += to - from
				end = to
			}
		}
		self[i] = float64(s.End-s.Start) - float64(covered)
	}
	return self
}

// durations returns the durations (ns) of the spans named name, restricted
// to detail when detail is non-empty.
func durations(spans []span, name, detail string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (detail == "" || s.Detail == detail) {
			out = append(out, s.dur())
		}
	}
	return out
}

// typical is the layer's time for one call: the median duration (ns) per
// distinct detail, averaged over the details. A layer called on inputs of
// different sizes (four models, three spec documents) has a multi-modal
// distribution whose plain median would sit on whichever input is in the
// middle.
func typical(spans []span, name string) float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		if s.Name == name {
			by[s.Detail] = append(by[s.Detail], s.dur())
		}
	}
	if len(by) == 0 {
		return 0
	}
	t := 0.0
	for _, ds := range by {
		t += median(ds)
	}
	return t / float64(len(by))
}

// perOp returns, for each op, the summed duration (ns) of the op's spans
// whose name passes match.
func perOp(spans []span, match func(name string) bool) []float64 {
	n := 0
	for _, s := range spans {
		n = max(n, s.Req+1)
	}
	out := make([]float64, n)
	for _, s := range spans {
		if s.Req >= 0 && match(s.Name) {
			out[s.Req] += s.dur()
		}
	}
	return out
}

// share is the summed time of the spans whose name passes match, as a share
// of the summed op time. Matching spans must not nest in one another.
func share(spans []span, match func(name string) bool) float64 {
	ops := sum(perOp(spans, func(n string) bool { return n == opSpan }))
	if ops == 0 {
		return 0
	}
	return sum(perOp(spans, match)) / ops
}

// unattributed is the share of op wall time no layer span covers.
func unattributed(spans []span) float64 {
	self := selfTimes(spans)
	var own, total float64
	for i, s := range spans {
		if s.Name == opSpan {
			own += self[i]
			total += s.dur()
		}
	}
	if total == 0 {
		return 0
	}
	return own / total
}

// appendSpans joins two recordings into one file's worth of spans, moving
// the second one's IDs and op numbers past the first's.
func appendSpans(dst, src []span) []span {
	ids, reqs := len(dst), 0
	for _, s := range dst {
		reqs = max(reqs, s.Req+1)
	}
	for _, s := range src {
		s.ID += ids
		if s.Parent >= 0 {
			s.Parent += ids
		}
		s.Req += reqs
		dst = append(dst, s)
	}
	return dst
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
