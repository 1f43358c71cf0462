// Package hotdata implements the multiple-bloom-filter read-frequency
// identifier FlexLevel's AccessEval relies on (paper reference [13],
// Park & Du, FAST'11): V rotating bloom filters capture recency-weighted
// access frequency with bounded memory and automatic decay.
package hotdata

import "fmt"

// Identifier tracks approximate read frequency per LPN.
type Identifier struct {
	filters  [][]uint64 // V bit arrays
	bits     uint64     // bits per filter
	hashes   int
	window   int // accesses between rotations
	accesses int
	current  int // filter receiving inserts
}

// Config parameterizes an Identifier.
type Config struct {
	Filters       int // V: number of bloom filters (max frequency level)
	BitsPerFilter int // size of each filter in bits
	Hashes        int // hash functions per insert
	Window        int // accesses between filter rotations (decay rate)
}

// DefaultConfig sizes the identifier for a ~64Ki-page working set.
func DefaultConfig() Config {
	return Config{Filters: 4, BitsPerFilter: 1 << 18, Hashes: 2, Window: 4096}
}

// New builds an Identifier.
func New(cfg Config) (*Identifier, error) {
	if cfg.Filters < 2 {
		return nil, fmt.Errorf("hotdata: need at least 2 filters, have %d", cfg.Filters)
	}
	if cfg.BitsPerFilter < 64 {
		return nil, fmt.Errorf("hotdata: filter size %d too small", cfg.BitsPerFilter)
	}
	if cfg.Hashes < 1 {
		return nil, fmt.Errorf("hotdata: need at least 1 hash, have %d", cfg.Hashes)
	}
	if cfg.Window < 1 {
		return nil, fmt.Errorf("hotdata: window %d too small", cfg.Window)
	}
	id := &Identifier{
		filters: make([][]uint64, cfg.Filters),
		bits:    uint64(cfg.BitsPerFilter),
		hashes:  cfg.Hashes,
		window:  cfg.Window,
	}
	words := (cfg.BitsPerFilter + 63) / 64
	for i := range id.filters {
		id.filters[i] = make([]uint64, words)
	}
	return id, nil
}

// FNV-1a 64-bit offset basis and prime.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64a returns the 64-bit FNV-1a hash of lpn's 8 little-endian bytes.
func fnv64a(lpn uint64) uint64 {
	h := uint64(fnvOffset64)
	for b := 0; b < 8; b++ {
		h ^= uint64(byte(lpn >> (8 * b)))
		h *= fnvPrime64
	}
	return h
}

// probe holds the double-hashing pair for one LPN: bit position i is
// (h1 + i*h2) mod bits. It is computed once per call and shared by every
// hash function.
type probe struct{ h1, h2 uint64 }

func newProbe(lpn uint64) probe {
	h1 := fnv64a(lpn)
	return probe{h1: h1, h2: h1>>33 | h1<<31}
}

// pos returns the i-th bit position of the probe in a filter of bits.
func (p probe) pos(i int, bits uint64) uint64 { return (p.h1 + uint64(i)*p.h2) % bits }

// Record notes one read access to lpn.
func (id *Identifier) Record(lpn uint64) {
	f := id.filters[id.current]
	pb := newProbe(lpn)
	for i := 0; i < id.hashes; i++ {
		pos := pb.pos(i, id.bits)
		f[pos/64] |= 1 << (pos % 64)
	}
	id.accesses++
	if id.accesses%id.window == 0 {
		id.rotate()
	}
}

// rotate makes the oldest filter current and clears it.
func (id *Identifier) rotate() {
	id.current = (id.current + 1) % len(id.filters)
	f := id.filters[id.current]
	for i := range f {
		f[i] = 0
	}
}

// contains reports whether filter f claims the probed LPN.
func (id *Identifier) contains(f []uint64, pb probe) bool {
	for i := 0; i < id.hashes; i++ {
		pos := pb.pos(i, id.bits)
		if f[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Frequency returns the number of filters containing lpn: an
// approximate, recency-decayed access count in [0, Filters].
func (id *Identifier) Frequency(lpn uint64) int {
	n := 0
	pb := newProbe(lpn)
	for _, f := range id.filters {
		if id.contains(f, pb) {
			n++
		}
	}
	return n
}

// MaxFrequency returns the largest value Frequency can report.
func (id *Identifier) MaxFrequency() int { return len(id.filters) }

// FreqLevel buckets the frequency into levels 1..nLevels (the paper's
// L_f). Frequency 0 maps to level 1 (cold); the level thresholds divide
// [1, MaxFrequency] evenly, so with nLevels=2 a page seen in at least
// half the filters counts as hot.
func (id *Identifier) FreqLevel(lpn uint64, nLevels int) int {
	if nLevels < 1 {
		return 1
	}
	f := id.Frequency(lpn)
	lvl := 1 + f*nLevels/id.MaxFrequency()
	if lvl > nLevels {
		lvl = nLevels
	}
	return lvl
}

// Reset clears all filters.
func (id *Identifier) Reset() {
	for _, f := range id.filters {
		for i := range f {
			f[i] = 0
		}
	}
	id.accesses = 0
	id.current = 0
}
