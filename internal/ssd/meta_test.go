package ssd

import (
	"testing"
	"time"

	"flexlevel/internal/baseline"
	"flexlevel/internal/ftl"
)

// metaConfig is a journaled + packed device at a large enough geometry
// that per-block overheads are amortized the way a real device's are.
func metaConfig() Config {
	cfg := DefaultConfig()
	cfg.FTL = ftl.Config{
		LogicalPages:  96 * 1024,
		PagesPerBlock: 128,
		Blocks:        1024, // 131072 phys pages; ~37% raw OP
		SpareBlocks:   16,
		ReducedFactor: 0.75,
		GCThreshold:   3,
		GCTarget:      6,
		Journal:       ftl.JournalConfig{Enabled: true},
	}
	cfg.PackedMeta = true
	return cfg
}

// legacyMetaBytes models the pre-packing per-page/per-block layout:
// a 32-byte OOB struct plus an 8-byte reverse map entry plus the two
// 8-byte age arrays per physical page, an 8-byte l2p entry per logical
// page, and int/int64-width block bookkeeping (valid, used, PE, state,
// free list, bad flags with map overhead, spare list).
func legacyMetaBytes(cfg ftl.Config) int64 {
	phys := int64(cfg.PagesPerBlock) * int64(cfg.Blocks)
	blocks := int64(cfg.Blocks)
	perPage := int64(32 /* OOB struct */ + 8 /* p2l */ + 8 + 8 /* ageOffset+progTime */)
	perBlock := int64(8 + 8 + 8 + 8 /* valid, used, PE, state */ + 8 /* free list */ + 1 /* bad []bool */)
	return phys*perPage + int64(cfg.LogicalPages)*8 + blocks*perBlock + int64(cfg.SpareBlocks)*8
}

// TestMetaBytesReduction pins the tentpole claim of DESIGN.md §16: the
// packed struct-of-arrays metadata is at least 4x smaller per physical
// page than the legacy array-of-structs layout it replaced, on a
// journaled device (the mode the lifetime sweep runs).
func TestMetaBytesReduction(t *testing.T) {
	cfg := metaConfig()
	d, err := newWith(cfg, flatBER(1e-4, 1e-4), baseline.LDPCInSSD{})
	if err != nil {
		t.Fatal(err)
	}
	packed := d.MetaBytes()
	if packed <= 0 {
		t.Fatal("MetaBytes not positive")
	}
	legacy := legacyMetaBytes(cfg.FTL)
	if ratio := float64(legacy) / float64(packed); ratio < 4.0 {
		t.Fatalf("metadata reduction = %.2fx (legacy %d B, packed %d B), want >= 4x",
			ratio, legacy, packed)
	}
	phys := int64(cfg.FTL.PagesPerBlock) * int64(cfg.FTL.Blocks)
	if perPage := float64(packed) / float64(phys); perPage > 20 {
		t.Errorf("packed metadata = %.1f B per physical page, want <= 20", perPage)
	}
	// The snapshot is plumbed through Results.
	if got := d.Results().MetaBytes; got != packed {
		t.Errorf("Results().MetaBytes = %d, want %d", got, packed)
	}
}

// TestPackedMetaAgeTracking drives the packed age path end to end:
// preloaded pre-ages land within quantization of the exact layout's,
// programs restart age at the program instant, and second-granularity
// truncation never produces a negative age.
func TestPackedMetaAgeTracking(t *testing.T) {
	exact := metaConfig()
	exact.PackedMeta = false
	packed := metaConfig()

	de, err := newWith(exact, flatBER(1e-4, 1e-4), baseline.LDPCInSSD{})
	if err != nil {
		t.Fatal(err)
	}
	dp, err := newWith(packed, flatBER(1e-4, 1e-4), baseline.LDPCInSSD{})
	if err != nil {
		t.Fatal(err)
	}
	const pages = 2048
	if err := de.Preload(pages); err != nil {
		t.Fatal(err)
	}
	if err := dp.Preload(pages); err != nil {
		t.Fatal(err)
	}
	now := 36 * time.Hour
	for lpn := uint64(0); lpn < pages; lpn += 17 {
		pe, _, _ := de.FTL().Lookup(lpn)
		pp, _, _ := dp.FTL().Lookup(lpn)
		ae, ap := de.ageHours(pe, now), dp.ageHours(pp, now)
		if ap < 0 {
			t.Fatalf("lpn %d: negative packed age %g", lpn, ap)
		}
		// One second of quantization is 1/3600 hour.
		if diff := ae - ap; diff < -1.0/3600 || diff > 1.0/3600 {
			t.Fatalf("lpn %d: packed age %g vs exact %g (diff %g h)", lpn, ap, ae, diff)
		}
	}
	// A rewrite restarts the age from the program instant.
	if _, err := dp.Write(now, 3, ftl.NormalState); err != nil {
		t.Fatal(err)
	}
	ppn, _, _ := dp.FTL().Lookup(3)
	if age := dp.ageHours(ppn, now); age != 0 {
		t.Fatalf("age right after program = %g, want 0", age)
	}
	if age := dp.ageHours(ppn, now+7200*time.Second); age != 2 {
		t.Fatalf("age 2h after program = %g, want 2", age)
	}
}
