package ssd

import (
	"math/rand"
	"testing"
	"time"

	"flexlevel/internal/baseline"
	"flexlevel/internal/ftl"
)

// slotBER is the test's plain BER: it depends only on the state and the
// age, and each whole hour of age moves the level key by at least one
// quantum, so thousands of pages with random preload ages give
// thousands of distinct level-cache keys.
func slotBER(state ftl.BlockState, pe, ageHours, shiftMv int) float64 {
	ber := 1e-4 * (1 + float64(ageHours)*1e-3)
	if state == ftl.ReducedState {
		ber /= 2
	}
	return ber
}

// TestLevelSlotMatchesMap replays one stream on two devices, one whose
// BER surface has a dense window over the pages' wear, and so hands out
// level slots, and one whose window lies past the packed P/E range, and
// so hands out none. It requires the same response and sensing level
// on every read and the same cache counters throughout. The stream
// reads more than levelCacheCap distinct keys, so the cache compacts
// while slots point at entries it drops, and it crashes and restarts
// the devices, which drops the whole cache under the slots: a slot that
// outlived either would answer as a hit where the map misses.
func TestLevelSlotMatchesMap(t *testing.T) {
	const pages = 12000
	cfg := smallConfig()
	cfg.FTL.LogicalPages = 16384
	cfg.FTL.PagesPerBlock = 64
	cfg.FTL.Blocks = 300
	cfg.FTL.Journal = ftl.JournalConfig{Enabled: true}
	// More age hours than the level cache holds keys; the younger pages
	// sit in the dense window, the older ones on the surface's map.
	cfg.MaxDataAgeHours = 20000
	build := func(anchorPE int) (*Device, *BERSurface) {
		surf := NewBERSurface(slotBER, anchorPE, cfg.MaxDataAgeHours)
		d, err := New(cfg, surf, baseline.LDPCInSSD{})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Preload(pages); err != nil {
			t.Fatal(err)
		}
		return d, surf
	}
	slotted, surf := build(cfg.FTL.InitialPE)
	plain, _ := build(1 << keyPEBits)

	rng := rand.New(rand.NewSource(5))
	var now time.Duration
	step := func(phase string, i int, lpn uint64) {
		now += time.Millisecond
		r1, l1 := slotted.Read(now, lpn)
		r2, l2 := plain.Read(now, lpn)
		if r1 != r2 || l1 != l2 {
			t.Fatalf("%s read %d (lpn %d): slotted (%v, %d levels), plain (%v, %d levels)", phase, i, lpn, r1, l1, r2, l2)
		}
		if a, b := slotted.Results(), plain.Results(); a.LevelCache != b.LevelCache || a.BERCache != b.BERCache {
			t.Fatalf("%s read %d (lpn %d): level cache %+v / surface %+v slotted, %+v / %+v plain",
				phase, i, lpn, a.LevelCache, a.BERCache, b.LevelCache, b.BERCache)
		}
	}
	pass := func(phase string) {
		for i, lpn := range rng.Perm(pages) {
			step(phase, i, uint64(lpn))
			if rng.Intn(3) == 0 {
				// A repeat makes some entries hotter, so compaction
				// keeps them and drops the rest.
				step(phase, i, uint64(lpn))
			}
		}
	}
	pass("first")
	pass("second")
	if r := slotted.Results().LevelCache.Resets; r < 2 {
		t.Fatalf("%d level-cache compactions over two passes, want at least 2", r)
	}
	for _, d := range []*Device{slotted, plain} {
		d.Crash()
		if _, err := d.Restart(now); err != nil {
			t.Fatal(err)
		}
	}
	now = slotted.Now()
	pass("after restart")

	trusted, points := 0, 0
	for _, rows := range surf.dense {
		for _, row := range rows {
			for _, e := range row {
				if e.set {
					points++
				}
				if e.slot.epoch == slotted.levelEpoch {
					trusted++
				}
			}
		}
	}
	if trusted == 0 {
		t.Fatal("no slot of the current epoch: the slotted device never filled its slots")
	}
	a, b := slotted.Results(), plain.Results()
	if a.LevelCache != b.LevelCache || a.LevelHist != b.LevelHist {
		t.Fatalf("final level cache %+v / hist %v slotted, %+v / %v plain", a.LevelCache, a.LevelHist, b.LevelCache, b.LevelHist)
	}
	t.Logf("level cache %+v, %d trusted slots of %d dense points", a.LevelCache, trusted, points)
}
