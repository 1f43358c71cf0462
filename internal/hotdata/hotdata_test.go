package hotdata

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	for _, w := range []int{0, -1} {
		if _, err := New(Config{Window: w}); err == nil {
			t.Errorf("window %d accepted", w)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestFrequencyGrowsWithAccesses(t *testing.T) {
	id, err := New(Config{Window: 100})
	if err != nil {
		t.Fatal(err)
	}
	const hot = uint64(42)
	if f := id.Frequency(hot); f != 0 {
		t.Errorf("fresh identifier reports frequency %d, want 0", f)
	}
	// Touch the hot page across several windows, interleaved with cold
	// traffic to advance the rotation.
	for w := 0; w < 4; w++ {
		id.Record(hot)
		for i := 0; i < 99; i++ {
			id.Record(uint64(1000 + w*100 + i))
		}
	}
	if f := id.Frequency(hot); f < 3 {
		t.Errorf("hot page frequency %d after 4 windows, want >= 3", f)
	}
	// A page touched once long ago decays to low frequency.
	if f := id.Frequency(1000); f > 2 {
		t.Errorf("cold old page frequency %d, want <= 2", f)
	}
}

func TestDecayByRotation(t *testing.T) {
	id, err := New(Config{Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	const page = uint64(7)
	id.Record(page)
	if f := id.Frequency(page); f != 1 {
		t.Fatalf("frequency after one access = %d, want 1", f)
	}
	// Push enough cold accesses to rotate through every filter.
	for i := 0; i < 10*Filters-1; i++ {
		id.Record(uint64(100 + i))
	}
	if f := id.Frequency(page); f != 0 {
		t.Errorf("frequency after full rotation = %d, want 0 (decayed)", f)
	}
}

func TestFreqLevelBuckets(t *testing.T) {
	id, err := New(Config{Window: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// Never-seen page: level 1 (cold).
	if l := id.FreqLevel(9999, 2); l != 1 {
		t.Errorf("cold page level %d, want 1", l)
	}
	// A page in every filter would be at the hottest level; with the
	// giant window only the current filter fills, so force frequency by
	// recording then rotating manually through windows is unavailable —
	// instead check level bounds.
	id.Record(5)
	for n := 1; n <= 4; n++ {
		l := id.FreqLevel(5, n)
		if l < 1 || l > n {
			t.Errorf("FreqLevel(.., %d) = %d out of [1,%d]", n, l, n)
		}
	}
	if l := id.FreqLevel(5, 0); l != 1 {
		t.Errorf("FreqLevel with 0 levels = %d, want 1", l)
	}
}

func TestMaxFrequency(t *testing.T) {
	id, err := New(Config{Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	if id.MaxFrequency() != 4 {
		t.Errorf("MaxFrequency = %d, want 4 (the paper's V)", id.MaxFrequency())
	}
}

func TestReset(t *testing.T) {
	id, err := New(Config{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		id.Record(3)
	}
	if id.Frequency(3) == 0 {
		t.Fatal("expected nonzero frequency before reset")
	}
	id.Reset()
	if f := id.Frequency(3); f != 0 {
		t.Errorf("frequency after reset = %d, want 0", f)
	}
}

func TestDistinguishesHotFromCold(t *testing.T) {
	// End-to-end: with a skewed stream, the identifier must rank a hot
	// page above a cold one most of the time.
	id, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := uint64(1), uint64(999999)
	for i := 0; i < 20000; i++ {
		if i%3 == 0 {
			id.Record(hot)
		} else {
			id.Record(uint64(1000 + i)) // cold spray
		}
	}
	if hf, cf := id.Frequency(hot), id.Frequency(cold); hf <= cf {
		t.Errorf("hot frequency %d not above cold %d", hf, cf)
	}
}

// TestBitPositionsMatchFNV pins the inlined hash: for a table of LPNs,
// every bit position Identifier derives equals the double-hashing
// formula over hash/fnv's 64-bit FNV-1a of the LPN's little-endian
// bytes, and Record sets exactly those bits.
func TestBitPositionsMatchFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lpns := []uint64{0, 1, 1<<32 - 1, 1 << 63, math.MaxUint64}
	for i := 0; i < 64; i++ {
		lpns = append(lpns, rng.Uint64())
	}
	for _, lpn := range lpns {
		h := fnv.New64a()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], lpn)
		h.Write(buf[:])
		h1 := h.Sum64()
		h2 := h1>>33 | h1<<31
		want := map[uint64]bool{}
		id, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		pb := newProbe(lpn)
		for i := 0; i < hashes; i++ {
			ref := (h1 + uint64(i)*h2) % FilterBits
			if got := pos(pb, i); got != ref {
				t.Fatalf("lpn %#x hash %d: bit %d, hash/fnv reference %d", lpn, i, got, ref)
			}
			want[ref] = true
		}
		id.Record(lpn)
		set := 0
		for _, word := range id.filters[0] {
			set += bits.OnesCount64(word)
		}
		for p := range want {
			if id.filters[0][p/64]&(1<<(p%64)) == 0 {
				t.Fatalf("lpn %#x: reference bit %d not set", lpn, p)
			}
		}
		if set != len(want) {
			t.Fatalf("lpn %#x: %d bits set, reference sets %d", lpn, set, len(want))
		}
	}
}

// TestRecordLevelMatchesRecordThenFreqLevel: the one-hash RecordLevel
// answers what Record followed by FreqLevel does, across rotations.
func TestRecordLevelMatchesRecordThenFreqLevel(t *testing.T) {
	cfg := Config{Window: 37}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(cfg)
	rng := rand.New(rand.NewSource(1 << 10))
	for i := 0; i < 5000; i++ {
		lpn := uint64(rng.Intn(300))
		levels := 1 + rng.Intn(4)
		got := a.RecordLevel(lpn, levels)
		b.Record(lpn)
		if want := b.FreqLevel(lpn, levels); got != want {
			t.Fatalf("access %d lpn %d: RecordLevel %d, Record+FreqLevel %d", i, lpn, got, want)
		}
	}
}
