// Package canon provides deterministic, collision-resistant fingerprints for
// solve requests. A fingerprint identifies the *semantics* of a request —
// graph structure and layer parameters, machine numbers, enumeration policy,
// and result-relevant solver options — so that two requests that must produce
// the same strategy hash identically, regardless of how their graphs were
// constructed, and the planner can cache and deduplicate solves by key.
//
// The package is a leaf: it defines only the Writer (hashing, or recording
// for callers that group encodings before hashing) and the Fingerprint
// type. Each domain package (graph, machine, itspace) implements its own
// CanonicalEncode(*canon.Writer) hook, and internal/planner composes the
// hooks into request fingerprints.
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

// blockSize is how many encoded bytes a hashing Writer buffers before it
// feeds them to the digest: one digest write per block instead of two per
// value, in memory that stays bounded however large the encoded value is.
const blockSize = 512

// Writer accumulates a canonical encoding. A hashing writer (NewWriter)
// feeds the bytes into a running SHA-256 in blocks; a recorder
// (NewRecorder) keeps the whole stream, so callers can group values by
// their encodings before hashing one per group. Both produce the same
// stream for the same calls, and so the same Sum.
type Writer struct {
	h   hash.Hash // nil for a recorder
	buf []byte    // a hashing writer's pending block; a recorder's stream
}

// NewWriter returns an empty canonical-encoding writer.
func NewWriter() *Writer {
	return &Writer{h: sha256.New(), buf: make([]byte, 0, blockSize+sha256.Size+1)}
}

// NewRecorder returns an empty writer that keeps its encoding: Bytes
// returns it and Truncate rewinds it, so one recorder can encode value after
// value without allocating once its buffer has grown to the largest.
func NewRecorder() *Writer { return &Writer{} }

// word writes one tagged 8-byte big-endian value.
func (w *Writer) word(tag byte, v uint64) {
	w.buf = binary.BigEndian.AppendUint64(append(w.buf, tag), v)
	w.spill()
}

// spill hands a hashing writer's full block to the digest.
func (w *Writer) spill() {
	if w.h != nil && len(w.buf) >= blockSize {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

// text writes a tagged, length-prefixed string, a block at a time.
func (w *Writer) text(tag byte, s string) {
	w.word(tag, uint64(len(s)))
	if w.h == nil {
		w.buf = append(w.buf, s...)
		return
	}
	for len(s) > 0 {
		k := min(len(s), blockSize-len(w.buf))
		w.buf = append(w.buf, s[:k]...)
		s = s[k:]
		w.spill()
	}
}

// Label writes a structural marker (a section or type name). Encoders use it
// to fence sub-objects so field sequences of nested values stay unambiguous.
func (w *Writer) Label(s string) { w.text(tagLabel, s) }

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) { w.text(tagString, s) }

// I64 writes a signed integer.
func (w *Writer) I64(v int64) { w.word(tagInt, uint64(v)) }

// Int writes an int.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// U64 writes an unsigned integer.
func (w *Writer) U64(v uint64) { w.word(tagUint, v) }

// F64 writes a float64, normalizing -0 to 0 and all NaNs to one bit pattern.
func (w *Writer) F64(v float64) {
	if v == 0 {
		v = 0 // collapses -0
	}
	bits := math.Float64bits(v)
	if math.IsNaN(v) {
		bits = 0x7ff8000000000001
	}
	w.word(tagFloat, bits)
}

// Bool writes a boolean.
func (w *Writer) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	w.buf = append(w.buf, tagBool, b)
	w.spill()
}

// Len opens a slice of n elements (the caller then writes the n elements).
// Pass -1 for a nil slice when nil-vs-empty is semantically meaningful.
func (w *Writer) Len(n int) {
	if n < 0 {
		w.buf = append(w.buf, tagNil)
		w.spill()
		return
	}
	w.word(tagSlice, uint64(n))
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
// identities can be built from per-element fingerprints without re-encoding
// the elements. The fixed 32-byte payload under its own tag keeps the stream
// unambiguous like every other value.
func (w *Writer) FP(f Fingerprint) {
	w.buf = append(append(w.buf, tagFP), f[:]...)
	w.spill()
}

// Sum finalizes and returns the fingerprint. The writer remains usable;
// further writes extend the same stream (Sum is a checkpoint, not a reset).
func (w *Writer) Sum() Fingerprint {
	if w.h == nil {
		return sha256.Sum256(w.buf)
	}
	w.h.Write(w.buf)
	var f Fingerprint
	copy(f[:], w.h.Sum(w.buf[:0]))
	w.buf = w.buf[:0]
	return f
}

// Bytes returns a recorder's stream so far. It aliases the recorder's
// buffer: the next write or Truncate may change it.
func (w *Writer) Bytes() []byte {
	w.mustRecord()
	return w.buf
}

// Truncate rewinds a recorder to its first n bytes, n a length Bytes
// returned: a shared prefix written once stays while the rest is re-encoded.
func (w *Writer) Truncate(n int) {
	w.mustRecord()
	w.buf = w.buf[:n]
}

func (w *Writer) mustRecord() {
	if w.h != nil {
		panic("canon: Bytes or Truncate on a hashing Writer")
	}
}
