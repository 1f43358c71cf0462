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
	mask     uint64     // bits-1 when bits is a power of two, else 0
	hashes   int
	window   int // accesses between rotations
	accesses int // since the last rotation
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
	if id.bits&(id.bits-1) == 0 {
		id.mask = id.bits - 1
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
// hash function of every filter.
type probe struct{ h1, h2 uint64 }

func newProbe(lpn uint64) probe {
	h1 := fnv64a(lpn)
	return probe{h1: h1, h2: h1>>33 | h1<<31}
}

// pos returns the i-th bit position of the probe; a power-of-two filter
// size reduces it with a mask instead of a 64-bit division.
func (id *Identifier) pos(pb probe, i int) uint64 {
	h := pb.h1 + uint64(i)*pb.h2
	if id.mask != 0 {
		return h & id.mask
	}
	return h % id.bits
}

// Record notes one read access to lpn.
func (id *Identifier) Record(lpn uint64) { id.record(newProbe(lpn)) }

// RecordLevel notes one read access to lpn and returns the page's
// frequency level after it — Record then FreqLevel, hashing lpn once.
func (id *Identifier) RecordLevel(lpn uint64, nLevels int) int {
	pb := newProbe(lpn)
	id.record(pb)
	return id.freqLevel(pb, nLevels)
}

func (id *Identifier) record(pb probe) {
	f := id.filters[id.current]
	for i := 0; i < id.hashes; i++ {
		pos := id.pos(pb, i)
		f[pos/64] |= 1 << (pos % 64)
	}
	id.accesses++
	if id.accesses == id.window {
		id.accesses = 0
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
		pos := id.pos(pb, i)
		if f[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Frequency returns the number of filters containing lpn: an
// approximate, recency-decayed access count in [0, Filters].
func (id *Identifier) Frequency(lpn uint64) int { return id.frequency(newProbe(lpn)) }

func (id *Identifier) frequency(pb probe) int {
	n := 0
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
	return id.freqLevel(newProbe(lpn), nLevels)
}

func (id *Identifier) freqLevel(pb probe, nLevels int) int {
	if nLevels < 1 {
		return 1
	}
	f := id.frequency(pb)
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
