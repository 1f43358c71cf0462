package hotdata

// Frequency returns the number of filters containing lpn: an
// approximate, recency-decayed access count in [0, Filters].
func (id *Identifier) Frequency(lpn uint64) int { return id.frequency(newProbe(lpn)) }

// Reset clears all filters.
func (id *Identifier) Reset() {
	for _, f := range &id.filters {
		for i := range f {
			f[i] = 0
		}
	}
	id.accesses = 0
	id.current = 0
}
