// Package canon provides deterministic, collision-resistant fingerprints for
// solve requests. A fingerprint identifies the *semantics* of a request —
// graph structure and layer parameters, machine numbers, enumeration policy,
// and result-relevant solver options — so that two requests that must produce
// the same strategy hash identically, regardless of how their graphs were
// constructed, and the planner can cache and deduplicate solves by key.
//
// The package is a leaf: it defines only the hashing Writer and the
// Fingerprint type. Each domain package (graph, machine, itspace) implements
// its own CanonicalEncode(*canon.Writer) hook, and internal/planner composes
// the hooks into request fingerprints.
//
// Encoding rules that make the hash canonical and unambiguous:
//
//   - Every value is written with an explicit type tag and, for variable
//     length data, a length prefix, so distinct field sequences can never
//     produce the same byte stream (no concatenation ambiguity).
//   - Float64s are written as IEEE-754 bits with negative zero normalized to
//     zero and every NaN to one canonical NaN.
//   - Optional slices distinguish nil from empty via the length prefix
//     (-1 vs 0) only when the distinction is semantic; encoders otherwise
//     normalize before writing.
package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// Fingerprint is a 256-bit canonical hash of a value.
type Fingerprint [sha256.Size]byte

// String returns the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// IsZero reports whether the fingerprint is the (invalid) zero value.
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// Type tags. Each written value is prefixed with its tag so that adjacent
// fields of different types can never collide byte-wise.
const (
	tagString byte = 1
	tagInt    byte = 2
	tagUint   byte = 3
	tagFloat  byte = 4
	tagBool   byte = 5
	tagSlice  byte = 6
	tagNil    byte = 7
	tagLabel  byte = 8
	tagFP     byte = 9
)

// Writer accumulates a canonical encoding into a running SHA-256.
type Writer struct {
	h   hash.Hash
	buf [9]byte
}

// NewWriter returns an empty canonical-encoding writer.
func NewWriter() *Writer { return &Writer{h: sha256.New()} }

func (w *Writer) tagged(tag byte, payload []byte) {
	w.buf[0] = tag
	w.h.Write(w.buf[:1])
	w.h.Write(payload)
}

// Label writes a structural marker (a section or type name). Encoders use it
// to fence sub-objects so field sequences of nested values stay unambiguous.
func (w *Writer) Label(s string) {
	w.buf[0] = tagLabel
	binary.BigEndian.PutUint64(w.buf[1:9], uint64(len(s)))
	w.h.Write(w.buf[:9])
	w.h.Write([]byte(s))
}

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.buf[0] = tagString
	binary.BigEndian.PutUint64(w.buf[1:9], uint64(len(s)))
	w.h.Write(w.buf[:9])
	w.h.Write([]byte(s))
}

// I64 writes a signed integer.
func (w *Writer) I64(v int64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	w.tagged(tagInt, b[:])
}

// Int writes an int.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// U64 writes an unsigned integer.
func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.tagged(tagUint, b[:])
}

// F64 writes a float64, normalizing -0 to 0 and all NaNs to one bit pattern.
func (w *Writer) F64(v float64) {
	if v == 0 {
		v = 0 // collapses -0
	}
	bits := math.Float64bits(v)
	if math.IsNaN(v) {
		bits = 0x7ff8000000000001
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], bits)
	w.tagged(tagFloat, b[:])
}

// Bool writes a boolean.
func (w *Writer) Bool(v bool) {
	var b [1]byte
	if v {
		b[0] = 1
	}
	w.tagged(tagBool, b[:])
}

// Len opens a slice of n elements (the caller then writes the n elements).
// Pass -1 for a nil slice when nil-vs-empty is semantically meaningful.
func (w *Writer) Len(n int) {
	if n < 0 {
		w.tagged(tagNil, nil)
		return
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(n))
	w.tagged(tagSlice, b[:])
}

// Ints writes a length-prefixed []int.
func (w *Writer) Ints(vs []int) {
	w.Len(len(vs))
	for _, v := range vs {
		w.I64(int64(v))
	}
}

// I64s writes a length-prefixed []int64.
func (w *Writer) I64s(vs []int64) {
	w.Len(len(vs))
	for _, v := range vs {
		w.I64(v)
	}
}

// FP writes a previously computed fingerprint as one value, so composite
// identities (an edge class over its endpoint classes) can be built from
// per-element fingerprints without re-encoding the elements. The fixed 32-byte payload
// under its own tag keeps the stream unambiguous like every other value.
func (w *Writer) FP(f Fingerprint) {
	w.tagged(tagFP, f[:])
}

// Sum finalizes and returns the fingerprint. The writer remains usable;
// further writes extend the same stream (Sum is a checkpoint, not a reset).
func (w *Writer) Sum() Fingerprint {
	var f Fingerprint
	w.h.Sum(f[:0])
	return f
}
