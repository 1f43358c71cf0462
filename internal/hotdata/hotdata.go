// Package hotdata implements the multiple-bloom-filter read-frequency
// identifier FlexLevel's AccessEval relies on (paper reference [13],
// Park & Du, FAST'11): V rotating bloom filters capture recency-weighted
// access frequency with bounded memory and automatic decay.
package hotdata

import "fmt"

// The identifier's shape, sized for a ~64Ki-page working set: V = 4
// bloom filters (the maximum frequency level) of 2^18 bits each, probed
// by 2 hash functions per insert. FilterBits is a power of two, so a bit
// position reduces with a mask.
const (
	Filters    = 4
	FilterBits = 1 << 18
	hashes     = 2
)

// Identifier tracks approximate read frequency per LPN.
type Identifier struct {
	filters  [Filters][]uint64
	window   int // accesses between rotations
	accesses int // since the last rotation
	current  int // filter receiving inserts
}

// Config parameterizes an Identifier.
type Config struct {
	Window int // accesses between filter rotations (decay rate)
}

// DefaultConfig rotates every 4096 accesses.
func DefaultConfig() Config {
	return Config{Window: 4096}
}

// New builds an Identifier.
func New(cfg Config) (*Identifier, error) {
	if cfg.Window < 1 {
		return nil, fmt.Errorf("hotdata: window %d too small", cfg.Window)
	}
	id := &Identifier{window: cfg.Window}
	for i := range id.filters {
		id.filters[i] = make([]uint64, FilterBits/64)
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

// pos returns the i-th bit position of the probe.
func pos(pb probe, i int) uint64 {
	return (pb.h1 + uint64(i)*pb.h2) & (FilterBits - 1)
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
	for i := 0; i < hashes; i++ {
		p := pos(pb, i)
		f[p/64] |= 1 << (p % 64)
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
	for i := 0; i < hashes; i++ {
		p := pos(pb, i)
		if f[p/64]&(1<<(p%64)) == 0 {
			return false
		}
	}
	return true
}

func (id *Identifier) frequency(pb probe) int {
	n := 0
	for _, f := range &id.filters {
		if id.contains(f, pb) {
			n++
		}
	}
	return n
}

// MaxFrequency returns the largest frequency a page can have: the
// number of filters.
func (id *Identifier) MaxFrequency() int { return Filters }

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
