package canon

import (
	"math"
	"testing"
)

func TestWriterDeterministic(t *testing.T) {
	mk := func() Fingerprint {
		w := NewWriter()
		w.Label("test")
		w.Str("hello")
		w.I64(-42)
		w.F64(3.14)
		w.Bool(true)
		w.Ints([]int{1, 2, 3})
		return w.Sum()
	}
	if mk() != mk() {
		t.Fatal("identical write sequences produced different fingerprints")
	}
}

func TestWriterDistinguishesValues(t *testing.T) {
	base := func(f func(w *Writer)) Fingerprint {
		w := NewWriter()
		f(w)
		return w.Sum()
	}
	cases := []struct {
		name string
		a, b func(w *Writer)
	}{
		{"string content", func(w *Writer) { w.Str("a") }, func(w *Writer) { w.Str("b") }},
		{"string vs label", func(w *Writer) { w.Str("a") }, func(w *Writer) { w.Label("a") }},
		{"split strings", func(w *Writer) { w.Str("ab"); w.Str("c") }, func(w *Writer) { w.Str("a"); w.Str("bc") }},
		{"nil vs empty slice", func(w *Writer) { w.Len(-1) }, func(w *Writer) { w.Len(0) }},
		{"bool", func(w *Writer) { w.Bool(true) }, func(w *Writer) { w.Bool(false) }},
		{"float", func(w *Writer) { w.F64(1) }, func(w *Writer) { w.F64(2) }},
	}
	for _, c := range cases {
		if base(c.a) == base(c.b) {
			t.Errorf("%s: distinct values hash identically", c.name)
		}
	}
}

func TestFloatNormalization(t *testing.T) {
	fp := func(v float64) Fingerprint {
		w := NewWriter()
		w.F64(v)
		return w.Sum()
	}
	if fp(0) != fp(math.Copysign(0, -1)) {
		t.Error("-0 and 0 hash differently")
	}
	if fp(math.NaN()) != fp(math.Float64frombits(0x7ff8000000000000)) {
		t.Error("NaN payloads hash differently")
	}
}
