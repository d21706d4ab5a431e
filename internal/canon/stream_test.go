package canon

import (
	"math"
	"strings"
	"testing"
)

// pinnedStream makes one fixed sequence of calls through every Writer method
// — −0, a NaN payload, a nil slice, a fingerprint, a checkpoint followed by
// more writes, and a string and a run of values each longer than a block —
// and returns the checkpoint and the final Sum.
func pinnedStream(w *Writer) (mid, end Fingerprint) {
	w.Label("canon.pin")
	w.Str("")
	w.Str("héllo")
	w.I64(math.MinInt64)
	w.Int(-1)
	w.word(3, math.MaxUint64) // tag 3, which no Writer method writes: the digests below hash this word
	w.F64(math.Copysign(0, -1))
	w.F64(math.Float64frombits(0x7ff0000000000bad))
	w.F64(math.Inf(-1))
	w.F64(1.0 / 3)
	w.Bool(true)
	w.Bool(false)
	w.Len(-1)
	w.Len(0)
	w.Ints([]int{3, -2, 1})
	w.I64s(nil)
	w.I64s([]int64{1 << 40})
	w.FP(Fingerprint{0: 0xde, 31: 0xad})
	mid = w.Sum()
	// A string, then a run of values, each longer than a block.
	w.Str(strings.Repeat("x", 1543))
	for i := range 1024 {
		w.Int(i)
		w.F64(float64(i) / 7)
	}
	w.Label("canon.pin/end")
	return mid, w.Sum()
}

// The byte stream is the fingerprint scheme: every cache key, class identity
// and snapshot label hashes through it, so buffering may not move a byte.
// The digests were computed by the unbuffered writer that wrote two digest
// calls per value; a recorder's stream must hash to the same.
func TestWriterStreamPinned(t *testing.T) {
	const (
		wantMid = "042979ef66834694eb51d43d08641422326ed9594848ef7feb206bb2df3ae555"
		wantEnd = "a82028f08765809ef5e198638e0b383da26ffca2a3ea3b910f856f1a053c0855"
	)
	for _, c := range []struct {
		name string
		w    *Writer
	}{{"hashing", NewWriter()}, {"recorder", NewRecorder()}} {
		mid, end := pinnedStream(c.w)
		if mid.String() != wantMid || end.String() != wantEnd {
			t.Errorf("%s: checkpoint %s, end %s; want %s, %s", c.name, mid, end, wantMid, wantEnd)
		}
	}
}
