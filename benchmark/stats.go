package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// batchMedian cuts xs into consecutive batches of size per, reduces each
// batch with f and returns the median of the reduced values. A trailing
// partial batch is dropped: every batch covers the same amount of work, so a
// neighbour burst shorter than half the window cannot move the result.
func batchMedian(xs []float64, per int, f func(batch []float64) float64) float64 {
	var vals []float64
	for i := 0; i+per <= len(xs); i += per {
		vals = append(vals, f(xs[i:i+per]))
	}
	return median(vals)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile; fewer and the "percentile" is one neighbour burst.
const tailMinBeyond = 10

// tail returns the highest percentile of xs that still has at least
// tailMinBeyond samples beyond it, as (value, percentile, sample count).
// With too few samples for any such percentile above the median it reports
// the median itself (percentile 50).
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := n - 1 - tailMinBeyond
	if idx <= n/2 {
		return median(s), 50, n
	}
	return s[idx], 100 * float64(idx+1) / float64(n), n
}

// geomean returns the geometric mean of xs, summing logs in sorted order so
// the result does not depend on the order the requests were issued in.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t := 0.0
	for _, x := range s {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(s)))
}

// relDiff is |a-b| relative to the larger magnitude, 0 when both are 0.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}
