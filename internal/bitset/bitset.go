// Package bitset provides the word-packed vertex sets used by the ordering
// hot paths (seq.Generate, seq.FromOrder) and the elimination's survivor
// sets: dependent sets are subsets of [0, n) for graph sizes in the
// hundreds, so union and membership over []uint64 words replace the
// map[int]bool churn that dominated GENERATESEQ profiles.
package bitset

import "math/bits"

const wordBits = 64

// Set is a fixed-universe bitset over [0, n): bit v of word v/64 marks
// membership of vertex v. The zero value is an empty set over an empty
// universe; use New to size one for a graph.
type Set []uint64

// New returns an empty set able to hold members in [0, n).
func New(n int) Set {
	return make(Set, (n+wordBits-1)/wordBits)
}

// Add inserts v.
func (s Set) Add(v int) { s[v/wordBits] |= 1 << uint(v%wordBits) }

// Remove deletes v.
func (s Set) Remove(v int) { s[v/wordBits] &^= 1 << uint(v%wordBits) }

// Has reports whether v is a member.
func (s Set) Has(v int) bool { return s[v/wordBits]&(1<<uint(v%wordBits)) != 0 }

// Count returns |s|.
func (s Set) Count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// UnionWith adds every member of t to s (s ∪= t). The sets must share a
// universe size.
func (s Set) UnionWith(t Set) {
	for i, w := range t {
		s[i] |= w
	}
}

// ForEach calls f on every member in increasing order.
func (s Set) ForEach(f func(v int)) {
	for i, w := range s {
		base := i * wordBits
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// AppendTo appends the members in increasing order to dst and returns it.
func (s Set) AppendTo(dst []int) []int {
	for i, w := range s {
		base := i * wordBits
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Members returns the elements in increasing order.
func (s Set) Members() []int { return s.AppendTo(nil) }
