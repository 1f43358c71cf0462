package ssd

import (
	"math/rand"
	"testing"
	"time"

	"flexlevel/internal/baseline"
	"flexlevel/internal/ftl"
)

// slotBER is the test's plain BER: it depends only on the state and the
// age in hundredths of an hour, and each step of that age moves the
// level key by at least one quantum, so thousands of pages with random
// preload ages give thousands of distinct level-cache keys.
func slotBER(state ftl.BlockState, pe int, ageHours float64, shiftMv int) float64 {
	ber := 1e-4 * (1 + float64(int(ageHours*100))*1e-3)
	if state == ftl.ReducedState {
		ber /= 2
	}
	return ber
}

// slotPoint is one point of slotMemo.
type slotPoint struct {
	ber  float64
	key  int64
	slot LevelSlot
}

// slotMemo is a memoizing BERFunc over slotBER's quantized inputs that
// keeps a LevelSlot beside every point and hands it out, as the BER
// surface does for its dense window.
type slotMemo map[[4]int]*slotPoint

func (m slotMemo) ber(state ftl.BlockState, pe int, ageHours float64, shiftMv int) (float64, int64, *LevelSlot) {
	k := [4]int{int(state), pe, int(ageHours * 100), shiftMv}
	p, ok := m[k]
	if !ok {
		v := slotBER(state, pe, ageHours, shiftMv)
		p = &slotPoint{ber: v, key: LevelKey(v)}
		m[k] = p
	}
	return p.ber, p.key, &p.slot
}

// TestLevelSlotMatchesMap replays one stream on two devices, one whose
// BERFunc hands out level slots and one whose BERFunc hands out none,
// and requires the same response and sensing level on every read and
// the same level-cache counters throughout. The stream reads more than
// levelCacheCap distinct keys, so the cache compacts while slots point
// at entries it drops, and it crashes and restarts the devices, which
// drops the whole cache under the slots: a slot that outlived either
// would answer as a hit where the map misses.
func TestLevelSlotMatchesMap(t *testing.T) {
	const pages = 12000
	cfg := smallConfig()
	cfg.FTL.LogicalPages = 16384
	cfg.FTL.PagesPerBlock = 64
	cfg.FTL.Blocks = 300
	cfg.FTL.Journal = ftl.JournalConfig{Enabled: true}
	memo := slotMemo{}
	build := func(berOf BERFunc) *Device {
		d, err := New(cfg, berOf, baseline.NewLDPCInSSD())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Preload(pages); err != nil {
			t.Fatal(err)
		}
		return d
	}
	slotted, plain := build(memo.ber), build(keyed(slotBER))

	rng := rand.New(rand.NewSource(5))
	var now time.Duration
	step := func(phase string, i int, lpn uint64) {
		now += time.Millisecond
		r1, l1 := slotted.Read(now, lpn)
		r2, l2 := plain.Read(now, lpn)
		if r1 != r2 || l1 != l2 {
			t.Fatalf("%s read %d (lpn %d): slotted (%v, %d levels), plain (%v, %d levels)", phase, i, lpn, r1, l1, r2, l2)
		}
		if a, b := slotted.Results().LevelCache, plain.Results().LevelCache; a != b {
			t.Fatalf("%s read %d (lpn %d): level cache %+v slotted, %+v plain", phase, i, lpn, a, b)
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

	trusted := 0
	for _, p := range memo {
		if p.slot.epoch == slotted.levelEpoch {
			trusted++
		}
	}
	if trusted == 0 {
		t.Fatal("no slot of the current epoch: the slotted device never filled its slots")
	}
	a, b := slotted.Results(), plain.Results()
	if a.LevelCache != b.LevelCache || a.LevelHist != b.LevelHist {
		t.Fatalf("final level cache %+v / hist %v slotted, %+v / %v plain", a.LevelCache, a.LevelHist, b.LevelCache, b.LevelHist)
	}
	t.Logf("level cache %+v, %d trusted slots of %d points", a.LevelCache, trusted, len(memo))
}
