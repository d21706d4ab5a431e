// Package itspace models the iteration spaces of DNN layers and their
// parallelization configurations, following Section II of the PaSE paper
// (Elango, IPDPS 2021).
//
// A layer's computation is captured by a d-dimensional iteration space; a
// parallelization configuration is a d-tuple (c1, ..., cd) of positive
// integers with Π ci ≤ p that states how many equal parts each dimension of
// the iteration space is split into across p devices.
package itspace

import (
	"fmt"
	"strings"

	"pase/internal/canon"
)

// Dim is one named dimension of an iteration space, e.g. the batch dimension
// "b" of extent 128.
type Dim struct {
	Name string
	Size int64
}

// Space is an iteration space: an ordered list of named dimensions.
// For a fully-connected layer multiplying A(M×K) by B(K×N) the space is
// {i: M, j: N, k: K}.
type Space []Dim

// Points returns the total number of points in the space, i.e. the product of
// all dimension extents.
func (s Space) Points() float64 {
	pts := 1.0
	for _, d := range s {
		pts *= float64(d.Size)
	}
	return pts
}

// DimIndex returns the index of the dimension with the given name, or -1 if
// the space has no such dimension.
func (s Space) DimIndex(name string) int {
	for i, d := range s {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the concatenated dimension names, e.g. "bnc" for a
// fully-connected layer, matching the paper's Table II "Dimensions" column.
func (s Space) Names() string {
	var b strings.Builder
	for i, d := range s {
		if i > 0 && len(d.Name) > 1 {
			b.WriteByte(',')
		}
		b.WriteString(d.Name)
	}
	return b.String()
}

// CanonicalEncode writes the space's canonical form (dimension names and
// extents, in order) for request fingerprinting.
func (s Space) CanonicalEncode(w *canon.Writer) {
	w.Label("itspace.Space")
	w.Len(len(s))
	for _, d := range s {
		w.Str(d.Name)
		w.I64(d.Size)
	}
}

// Validate reports an error if any dimension is non-positive or unnamed.
func (s Space) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("itspace: empty iteration space")
	}
	for i, d := range s {
		if d.Size <= 0 {
			return fmt.Errorf("itspace: dimension %d (%q) has non-positive size %d", i, d.Name, d.Size)
		}
		if d.Name == "" {
			return fmt.Errorf("itspace: dimension %d has empty name", i)
		}
	}
	return nil
}

// Config is a parallelization configuration: Config[i] is the number of equal
// parts dimension i of the iteration space is split into. A valid
// configuration for p devices satisfies Π Config[i] ≤ p and
// 1 ≤ Config[i] ≤ Size(i).
type Config []int

// Degree returns the total number of parts the configuration creates, i.e.
// the product of all split factors. Degree ≤ p for a valid configuration.
func (c Config) Degree() int {
	deg := 1
	for _, ci := range c {
		deg *= ci
	}
	return deg
}

// SplitDims returns how many dimensions are split more than one way.
func (c Config) SplitDims() int {
	n := 0
	for _, ci := range c {
		if ci > 1 {
			n++
		}
	}
	return n
}

// Clone returns a copy of the configuration.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// Equal reports whether two configurations are identical.
func (c Config) Equal(o Config) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the configuration in the paper's Table II style, e.g.
// "(1, 4, 8)".
func (c Config) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, ci := range c {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", ci)
	}
	b.WriteByte(')')
	return b.String()
}

// ValidFor reports whether the configuration is valid for the given space and
// device count: correct arity, every factor within [1, dim size], each factor
// dividing the dimension extent and the device count, and total degree ≤ p.
func (c Config) ValidFor(s Space, p int) error {
	if len(c) != len(s) {
		return fmt.Errorf("itspace: config arity %d does not match space arity %d", len(c), len(s))
	}
	deg := 1
	for i, ci := range c {
		if ci < 1 {
			return fmt.Errorf("itspace: split factor %d of dim %q is < 1", ci, s[i].Name)
		}
		if int64(ci) > s[i].Size {
			return fmt.Errorf("itspace: split factor %d exceeds dim %q extent %d", ci, s[i].Name, s[i].Size)
		}
		if s[i].Size%int64(ci) != 0 {
			return fmt.Errorf("itspace: split factor %d does not divide dim %q extent %d", ci, s[i].Name, s[i].Size)
		}
		deg *= ci
	}
	if deg > p {
		return fmt.Errorf("itspace: config degree %d exceeds device count %d", deg, p)
	}
	if p%deg != 0 {
		return fmt.Errorf("itspace: config degree %d does not divide device count %d", deg, p)
	}
	return nil
}
