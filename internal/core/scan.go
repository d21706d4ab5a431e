package core

import (
	"math"
	"slices"

	"pase/internal/par"
)

// fillChunkEntries caps one chunk of a parallel table fill at 16K entries:
// the chunk's output (16K float64 costs + 16K int32 choices ≈ 192 KB) plus
// the kv-long input rows it folds stays L2-resident per core, and a big fill
// splits into many more chunks than workers so the atomic work-claiming
// balances stragglers instead of one static split.
const fillChunkEntries = 1 << 14

// parallelThreshold is the table size below which a chunked parallel fill is
// not worth the dispatch overhead; minChunkEntries floors the chunk size so
// the per-chunk odometer positioning and base rebuild stay amortized to noise.
// Variables only so tests can force chunk boundaries into tiny tables.
var (
	parallelThreshold int64 = 4096
	minChunkEntries   int64 = 1 << 10
)

// fillChunkSize picks the chunk length for a table of the given size: aim
// for several chunks per worker, within [minChunkEntries, fillChunkEntries].
func fillChunkSize(total int64, workers int) int64 {
	c := (total + int64(workers)*4 - 1) / (int64(workers) * 4)
	if c > fillChunkEntries {
		c = fillChunkEntries
	}
	if c < minChunkEntries {
		c = minChunkEntries
	}
	return c
}

// grown is s resliced to n elements, or a new slice where s is too short.
// A new slice's capacity is a multiple of 8 elements, so that the buffers of
// two fill chunks — 8-byte elements, allocated one after the other — never
// share a cache line.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, (n+7)&^7)
	}
	return s[:n]
}

// cancelCheckMask sets the cancellation polling granularity inside a table
// fill: every (cancelCheckMask+1) table entries each fill goroutine does one
// non-blocking read of ctx.Done(). 4096 entries amortize the channel poll to
// noise (<<1% of the scan work) while keeping worst-case cancellation
// latency in the low milliseconds even on Transformer p=32 tables. With a
// Background context (no Done channel) the checks compile down to a nil
// test — the default solve path pays nothing.
const cancelCheckMask = 4096 - 1

// scan fills q, the quotient table of vertex v, by a linear argmin over the
// representatives reps of every digit.
func (e *exactSolve) scan(v int, q *qtable, srcs []rowSrc, rowDig [][]digUpd, reps [][]int) {
	tlv := e.m.TLRow(v)
	// Every digit has rows: a member of D(i) neighbours v or the set of a
	// child, whose dependent set holds v.
	fastDigit := len(q.dims) // first digit with K > 1; len(q.dims) when there is none
	var scanDigits []int     // digits the scan odometer steps, fastest first
	for k := range q.dims {
		if fastDigit == len(q.dims) && e.kd[k] > 1 {
			fastDigit = k
		}
		if len(reps[k]) > 1 {
			scanDigits = append(scanDigits, k)
		}
	}
	// Fast rows are the ones fastDigit moves; every other row is constant
	// between two steps of a slower digit and is hoisted, with the layer cost
	// row, into the chunk's base vector. The split is by digit, not by class
	// count: a fastDigit whose values all fall in one class never steps, but
	// its rows are still summed last, so every table keeps the bits the
	// unquotiented scan gives it.
	var fastRows, slowRows []int
	for s := range srcs {
		if slices.Contains(srcs[s].digit, fastDigit) {
			fastRows = append(fastRows, s)
		} else {
			slowRows = append(slowRows, s)
		}
	}
	done, cancelled, stopped := e.done, &e.cancelled, e.stopped

	// fillScan computes min_C over the flat range [lo, hi) of the table —
	// the scan odometer over the representatives of every digit, first
	// digit fastest — on buffers the chunk allocates for itself. A
	// candidate's cost is summed as ((tl + slow rows in row order) + fast
	// rows in row order); the parenthesised base is rebuilt only when a
	// digit slower than fastDigit steps. Each entry takes the first
	// candidate of least cost in configuration order. Ranges are disjoint
	// and all shared state is read-only, so chunks run in parallel with
	// byte-identical tables at any worker count and chunk size.
	fillScan := func(lo, hi int64) {
		// A chunk claimed after cancellation returns before paying the
		// odometer positioning.
		if done != nil && cancelled.Load() {
			return
		}
		// digits holds each digit's position in its reps list, ridx each
		// row's index in its source table: the rows themselves are re-sliced
		// where they are read, so the inner loops store no pointer into the
		// heap. base and sum are the chunk's cost buffers.
		digits, ridx := make([]int, len(q.dims)), make([]int64, len(srcs))
		base, sum := grown[float64](nil, len(tlv)), grown[float64](nil, len(tlv))
		row := func(s int) []float64 {
			o := ridx[s] * int64(srcs[s].w)
			return srcs[s].vals[o : o+int64(srcs[s].w)]
		}
		rebase := func() {
			copy(base, tlv)
			for _, s := range slowRows {
				if f, col := row(s), srcs[s].col; col == nil {
					for c, x := range f {
						base[c] += x
					}
				} else {
					for c, cc := range col {
						base[c] += f[cc]
					}
				}
			}
		}
		// Position the incremental state at flat index lo of the scan
		// odometer.
		rem := lo
		for _, k := range scanDigits {
			n := int64(len(reps[k]))
			digits[k] = int(rem % n)
			rem /= n
			for _, u := range rowDig[k] {
				ridx[u.i] += int64(classIn(u.cls, reps[k][digits[k]])) * u.stride
			}
		}
		rebase()
		for flat := lo; flat < hi; flat++ {
			if flat&cancelCheckMask == 0 && stopped() {
				return
			}
			best := math.Inf(1)
			bestC := 0
			if len(fastRows) == 1 { // the common shape, fused
				s := fastRows[0]
				f, col := row(s), srcs[s].col
				if col == nil {
					f = f[:len(base)]
					for c, b := range base {
						if x := b + f[c]; x < best {
							best, bestC = x, c
						}
					}
				} else {
					col = col[:len(base)]
					for c, b := range base {
						if x := b + f[col[c]]; x < best {
							best, bestC = x, c
						}
					}
				}
			} else {
				acc := base
				if len(fastRows) > 0 {
					acc = sum
					copy(acc, base)
					for _, s := range fastRows {
						f, col := row(s), srcs[s].col
						for c := range acc {
							acc[c] += f[classIn(col, c)]
						}
					}
				}
				for c, x := range acc {
					if x < best {
						best, bestC = x, c
					}
				}
			}
			q.cost[flat] = best
			q.choice[flat] = int32(bestC)

			// Odometer increment: the stepping digit moves to its next
			// representative, the wrapped ones back to value 0 (class 0 of
			// every row), updating only the rows those digits stride through.
			slowStep := false
			for _, k := range scanDigits {
				r := reps[k]
				at := digits[k]
				if at+1 < len(r) {
					digits[k] = at + 1
					for _, u := range rowDig[k] {
						ridx[u.i] += int64(classIn(u.cls, r[at+1])-classIn(u.cls, r[at])) * u.stride
					}
					slowStep = k > fastDigit
					break
				}
				digits[k] = 0
				for _, u := range rowDig[k] {
					ridx[u.i] -= int64(classIn(u.cls, r[at])) * u.stride
				}
			}
			if slowStep {
				rebase()
			}
		}
	}
	e.par(int64(len(q.cost)), fillScan)
	e.st.States += int64(len(q.cost)) * int64(len(tlv))
}

// par splits a pass's flat index range into contiguous fixed-size chunks
// that e.nw goroutines, started for this pass and the caller among them,
// claim one at a time. Chunks write disjoint output ranges, so which
// goroutine runs which chunk is irrelevant to the bytes produced — results
// stay byte-identical at every worker count — while the dynamic claiming
// keeps all cores busy even when one chunk's scan is slower than another's.
func (e *exactSolve) par(total int64, f func(lo, hi int64)) {
	if e.nw <= 1 || total < parallelThreshold {
		f(0, total)
		return
	}
	chunk := fillChunkSize(total, e.nw)
	par.For(int((total+chunk-1)/chunk), e.nw, func(c int) {
		lo := int64(c) * chunk
		f(lo, min(lo+chunk, total))
	})
}
