package ftl

import (
	"math/rand"
	"testing"
)

// BenchmarkFTLAppendPacked measures the journaled write path through
// the packed struct-of-arrays media: every append programs OOB words,
// buffers a journal record and periodically flushes/checkpoints. The
// allocs/op line is the point — the packed layout appends without
// per-page heap traffic.
func BenchmarkFTLAppendPacked(b *testing.B) {
	cfg := Config{
		LogicalPages:  4096,
		PagesPerBlock: 64,
		Blocks:        88,
		ReducedFactor: 0.75,
		GCThreshold:   3,
		GCTarget:      4,
		Journal:       JournalConfig{Enabled: true},
	}
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Write(uint64(rng.Intn(4096)), NormalState); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverLargeDevice measures a full recovery — checkpoint
// decode, journal replay, OOB scan — of a 131072-physical-page
// journaled device whose whole logical space was written and then
// churned. This is the packed layout's other payoff: recovery scans
// the OOB arrays instead of chasing 32-byte structs.
func BenchmarkRecoverLargeDevice(b *testing.B) {
	cfg := Config{
		LogicalPages:  96 * 1024,
		PagesPerBlock: 128,
		Blocks:        1024,
		SpareBlocks:   16,
		ReducedFactor: 0.75,
		GCThreshold:   3,
		GCTarget:      6,
		Journal:       JournalConfig{Enabled: true},
	}
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for lpn := uint64(0); lpn < cfg.LogicalPages; lpn++ {
		if _, _, err := f.Write(lpn, NormalState); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40000; i++ {
		if _, _, err := f.Write(uint64(rng.Intn(int(cfg.LogicalPages))), NormalState); err != nil {
			b.Fatal(err)
		}
	}
	m := f.Media()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Recover(cfg, m.Clone(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFTLPickVictim measures one garbage-collection victim scan
// over the default geometry (about 700 blocks) in steady state: the
// logical space written once across both pools, then churned by random
// overwrites until GC has been running for a while.
func BenchmarkFTLPickVictim(b *testing.B) {
	cfg := DefaultConfig()
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	state := func() BlockState {
		if rng.Intn(4) == 0 {
			return ReducedState
		}
		return NormalState
	}
	for lpn := uint64(0); lpn < cfg.LogicalPages; lpn++ {
		if _, _, err := f.Write(lpn, state()); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4*int(cfg.LogicalPages); i++ {
		if _, _, err := f.Write(uint64(rng.Intn(int(cfg.LogicalPages))), state()); err != nil {
			b.Fatal(err)
		}
	}
	if f.Stats().Erases == 0 || f.pickVictim() < 0 {
		b.Fatal("churn never reached steady-state GC")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.pickVictim()
	}
}

// BenchmarkFTLAllocBlock fills a fresh default FTL at P/E 6000 the way
// preload does, one sequential write per logical page: every 64th write
// opens a block through allocBlock's least-worn pick, over a free list
// that starts with every block in it.
func BenchmarkFTLAllocBlock(b *testing.B) {
	cfg := DefaultConfig()
	cfg.InitialPE = 6000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for lpn := uint64(0); lpn < cfg.LogicalPages; lpn++ {
			if _, _, err := f.Write(lpn, NormalState); err != nil {
				b.Fatal(err)
			}
		}
	}
}
