package canon

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// write is one Writer call as the encoding promises to read it: a kind and a
// value. Ints is lowered to the Len and I64 calls it is defined as, every
// negative Len to the one nil marker, and a float to its canonical bits (−0
// as 0, every NaN as one NaN).
type write struct {
	kind byte
	s    string
	u    uint64
}

// canonNaN stands for every NaN payload in a lowered float.
const canonNaN = 0x7ff8000000000000

// replay decodes data into a sequence of Label/Str/I64/F64/Bool/Len/Ints
// calls, makes them on w, and returns them lowered. Each call is an opcode
// byte followed by its operands; operands past the end of data read as zero
// bytes.
func replay(data []byte, w *Writer) []write {
	take := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	var out []write
	for len(data) > 0 {
		op := data[0] % 7
		data = data[1:]
		switch op {
		case 0:
			s := string(take(int(take(1)[0] % 16)))
			w.Label(s)
			out = append(out, write{kind: tagLabel, s: s})
		case 1:
			s := string(take(int(take(1)[0] % 16)))
			w.Str(s)
			out = append(out, write{kind: tagString, s: s})
		case 2:
			v := int64(binary.BigEndian.Uint64(take(8)))
			w.I64(v)
			out = append(out, write{kind: tagInt, u: uint64(v)})
		case 3:
			v := math.Float64frombits(binary.BigEndian.Uint64(take(8)))
			w.F64(v)
			bits := math.Float64bits(v)
			switch {
			case v == 0:
				bits = 0
			case math.IsNaN(v):
				bits = canonNaN
			}
			out = append(out, write{kind: tagFloat, u: bits})
		case 4:
			v := take(1)[0] & 1
			w.Bool(v == 1)
			out = append(out, write{kind: tagBool, u: uint64(v)})
		case 5:
			n := int(int8(take(1)[0]))
			w.Len(n)
			if n < 0 {
				out = append(out, write{kind: tagNil})
			} else {
				out = append(out, write{kind: tagSlice, u: uint64(n)})
			}
		case 6:
			vs := make([]int, take(1)[0]%8)
			for i := range vs {
				vs[i] = int(int8(take(1)[0]))
			}
			w.Ints(vs)
			out = append(out, write{kind: tagSlice, u: uint64(len(vs))})
			for _, v := range vs {
				out = append(out, write{kind: tagInt, u: uint64(int64(v))})
			}
		}
	}
	return out
}

// FuzzWriterInjective: two sequences of Writer calls give the same Sum exactly
// when they mean the same — the same lowered calls in the same order. A
// collision would let two requests share a cache entry; a split would let one
// request miss its own.
func FuzzWriterInjective(f *testing.F) {
	i64 := func(v int64) []byte { return binary.BigEndian.AppendUint64([]byte{2}, uint64(v)) }
	f64 := func(bits uint64) []byte { return binary.BigEndian.AppendUint64([]byte{3}, bits) }
	for _, seed := range [][2][]byte{
		{nil, nil},
		{{0, 1, 'a'}, {1, 1, 'a'}}, // Label vs Str
		{{1, 2, 'a', 'b', 1, 1, 'c'}, {1, 1, 'a', 1, 2, 'b', 'c'}}, // split strings
		{f64(0), f64(1 << 63)},                                                  // 0 and −0
		{f64(0x7ff8000000000001), f64(0xfff0000000000002)},                      // two NaNs
		{f64(math.Float64bits(1)), f64(math.Float64bits(math.Nextafter(1, 2)))}, // one ulp apart
		{{6, 2, 1, 2}, slices.Concat([]byte{5, 2}, i64(1), i64(2))},             // Ints vs Len + I64s
		{{5, 0xff}, {5, 0xf9}},                                                  // Len(-1) vs Len(-7)
		{{5, 0xff}, {5, 0}},                                                     // nil vs empty
		{{4, 1}, i64(1)},                                                        // Bool vs I64
		{i64(7), slices.Concat(i64(7), i64(0))},                                 // a prefix
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		wa, wb := NewWriter(), NewWriter()
		la, lb := replay(a, wa), replay(b, wb)
		same := slices.Equal(la, lb)
		if collide := wa.Sum() == wb.Sum(); collide != same {
			t.Fatalf("same meaning %v but same Sum %v:\n a = %+v\n b = %+v", same, collide, la, lb)
		}
	})
}
