// Package bitset provides a dense fixed-size bit set used by the FTL's
// packed metadata layout (DESIGN.md §16): per-block bad/spare tracking
// and per-page flag words cost one bit each instead of a bool (or a map
// entry). The zero value is unusable; build sets with New.
package bitset

import "math/bits"

// Set is a dense bit set over the index range [0, Len).
type Set struct {
	words []uint64
	n     int
}

// New returns a set of n bits, all clear. n must be non-negative.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative length")
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Get reports whether bit i is set. Out-of-range indexes read clear.
func (s *Set) Get(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i. Panics when i is out of range.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i. Panics when i is out of range.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
}

// Count returns the number of set bits (popcount).
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Max returns the highest set bit, or ok=false when the set is empty.
func (s *Set) Max() (int, bool) {
	for w := len(s.words) - 1; w >= 0; w-- {
		if s.words[w] != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(s.words[w]), true
		}
	}
	return 0, false
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Range calls fn for each set bit in ascending order until fn returns
// false.
func (s *Set) Range(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if !fn(i) {
				return
			}
			w &= w - 1
		}
	}
}

// Bytes returns the set's memory footprint in bytes (the backing words
// only), for metadata accounting.
func (s *Set) Bytes() int64 { return int64(len(s.words)) * 8 }
