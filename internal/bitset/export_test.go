package bitset

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	return &Set{words: append([]uint64(nil), s.words...), n: s.n}
}
