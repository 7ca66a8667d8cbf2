// Package dataflow implements the iterative bit-vector dataflow framework
// used by the compiler: reaching definitions (feeding UD/DU chains), liveness
// (feeding dead-code elimination and the PDE-style insertion), and the
// per-register demanded-width analysis of the paper's first algorithm.
package dataflow

import "math/bits"

// BitSet is a fixed-capacity bit vector.
type BitSet []uint64

// NewBitSet returns a bitset able to hold n bits.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set sets bit i.
func (s BitSet) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s BitSet) Clear(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func (s BitSet) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// UnionWith ors t into s, reporting whether s changed.
func (s BitSet) UnionWith(t BitSet) bool {
	changed := false
	for k := range s {
		nv := s[k] | t[k]
		if nv != s[k] {
			s[k] = nv
			changed = true
		}
	}
	return changed
}

// IntersectWith ands t into s, reporting whether s changed.
func (s BitSet) IntersectWith(t BitSet) bool {
	changed := false
	for k := range s {
		nv := s[k] & t[k]
		if nv != s[k] {
			s[k] = nv
			changed = true
		}
	}
	return changed
}

// AndNotWith removes t's bits from s.
func (s BitSet) AndNotWith(t BitSet) {
	for k := range s {
		s[k] &^= t[k]
	}
}

// CopyFrom overwrites s with t.
func (s BitSet) CopyFrom(t BitSet) { copy(s, t) }

// Equal reports whether two same-capacity bitsets hold identical bits.
func (s BitSet) Equal(t BitSet) bool {
	for k := range s {
		if s[k] != t[k] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s BitSet) Clone() BitSet {
	c := make(BitSet, len(s))
	copy(c, s)
	return c
}

// Reset clears every bit.
func (s BitSet) Reset() {
	for k := range s {
		s[k] = 0
	}
}

// Count returns the number of set bits.
func (s BitSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach invokes f with the index of every set bit, ascending.
func (s BitSet) ForEach(f func(i int)) {
	for k, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(k<<6 + b)
			w &= w - 1
		}
	}
}
