package calib

import (
	"testing"
	"testing/quick"
)

// convexEval builds an eval whose required sensing levels grow with the
// distance from an optimal shift — the shape a drifted Vth landscape
// presents (BER is unimodal in the reference shift). Levels above 7 are
// unreadable.
func convexEval(optMv, mvPerLevel int) func(int) (int, bool) {
	return func(shiftMv int) (int, bool) {
		d := shiftMv - optMv
		if d < 0 {
			d = -d
		}
		lev := d / mvPerLevel
		if lev > 7 {
			return 7, false
		}
		return lev, true
	}
}

func TestCalibrateConvergesTowardOptimum(t *testing.T) {
	var b Block
	// Retention drift moved the distributions down ~120mV: the optimal
	// read-reference shift is −120mV and each 40mV of error costs one
	// extra sensing level.
	eval := convexEval(-120, 40)
	entryLev, _ := eval(b.ShiftMv())
	var lastLev int
	improved := false
	for i := 0; i < 4; i++ {
		prevLev, _ := eval(b.ShiftMv())
		probes, lev, ok := b.Calibrate(eval)
		if probes > maxProbes {
			t.Fatalf("round %d: %d probes, budget %d", i, probes, maxProbes)
		}
		if !ok {
			t.Fatalf("round %d: unreadable at shift %dmV", i, b.ShiftMv())
		}
		improved = improved || lev < prevLev
		lastLev = lev
	}
	if lastLev > 0 {
		t.Errorf("converged to %d levels at %dmV, want 0 near -120mV", lastLev, b.ShiftMv())
	}
	if lastLev > entryLev {
		t.Errorf("calibration regressed: entry %d levels, final %d", entryLev, lastLev)
	}
	if !improved {
		t.Error("no round of 4 lowered the block's levels")
	}
}

func TestCalibrateRescuesUnreadable(t *testing.T) {
	var b Block
	// Unreadable at the nominal references (8+ levels needed), readable
	// within 40mV of −80mV.
	eval := convexEval(-80, 10)
	if _, ok := eval(0); ok {
		t.Fatal("test eval should be unreadable at shift 0")
	}
	_, lev, ok := b.Calibrate(eval)
	if !ok {
		t.Fatalf("calibration failed to rescue: %d levels at %dmV", lev, b.ShiftMv())
	}
	if got, readable := eval(b.ShiftMv()); got != lev || !readable {
		t.Errorf("Calibrate reported %d levels, readable, but its shift %dmV re-senses to %d, %v", lev, b.ShiftMv(), got, readable)
	}
}

// Property: for any optimum and any history of rounds the search
// respects the probe budget, the shift bound, and never leaves the block
// worse than it entered.
func TestCalibrateProperties(t *testing.T) {
	f := func(optRaw int16, rounds uint8) bool {
		var b Block
		opt := int(optRaw) % 400
		eval := convexEval(opt, 25)
		prevLev, prevOK := eval(0)
		for i := 0; i < int(rounds)%5+1; i++ {
			probes, lev, ok := b.Calibrate(eval)
			if probes < 1 || probes > maxProbes {
				return false
			}
			s := b.ShiftMv()
			if s < -maxShiftMv || s > maxShiftMv {
				return false
			}
			// Monotone: each round ends no worse than the last.
			if prevOK && (!ok || lev > prevLev) {
				return false
			}
			prevLev, prevOK = lev, ok
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Determinism: the same observation sequence produces the same state.
func TestCalibrateDeterministic(t *testing.T) {
	type round struct{ probes, levels int }
	run := func() (int, [3]round) {
		var b Block
		eval := convexEval(-160, 30)
		var rounds [3]round
		for i := range rounds {
			rounds[i].probes, rounds[i].levels, _ = b.Calibrate(eval)
		}
		return b.ShiftMv(), rounds
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 || r1 != r2 {
		t.Errorf("nondeterministic: (%d, %+v) vs (%d, %+v)", s1, r1, s2, r2)
	}
}

func TestObserveGating(t *testing.T) {
	var b Block // low-water mark 2
	if b.Observe(0, true) || b.Observe(1, true) {
		t.Error("below low-water reads must not trigger calibration")
	}
	if !b.Observe(2, true) {
		t.Error("low-water read of an uncalibrated block must trigger")
	}
	if !b.Observe(3, false) {
		t.Error("unreadable outcome must always trigger")
	}
	// After a calibration that settles at 2 levels, only further drift
	// re-triggers.
	b.Calibrate(func(int) (int, bool) { return 2, true })
	if b.Observe(2, true) {
		t.Error("stable block re-triggered calibration")
	}
	if !b.Observe(3, true) {
		t.Error("drift past the calibrated level must re-trigger")
	}
}

// TestForgetAndReset: the device forgets a block on erase, and every
// block on power loss, by zeroing its Block. A zeroed Block must read the
// nominal references, re-arm the uncalibrated Observe gate and calibrate
// exactly as a block that was never calibrated.
func TestForgetAndReset(t *testing.T) {
	eval := convexEval(-100, 20)
	var fresh Block
	wantProbes, wantLevels, wantOK := fresh.Calibrate(eval)

	blocks := make([]Block, 3)
	for i := range blocks {
		blocks[i].Calibrate(convexEval(-50*(i+1), 20))
		if blocks[i].ShiftMv() == 0 {
			t.Fatalf("block %d: calibration did not move the shift", i)
		}
	}
	blocks[0] = Block{} // erase of block 0
	if blocks[0].ShiftMv() != 0 || blocks[1].ShiftMv() == 0 {
		t.Error("forgetting block 0 did not clear it alone")
	}
	for i := range blocks {
		blocks[i] = Block{} // power loss
	}
	for i := range blocks {
		b := &blocks[i]
		if b.ShiftMv() != 0 {
			t.Errorf("block %d: reset left shift %d", i, b.ShiftMv())
		}
		if !b.Observe(lowWater, true) {
			t.Errorf("block %d: reset block did not re-arm the low-water gate", i)
		}
		probes, levels, ok := b.Calibrate(eval)
		if probes != wantProbes || levels != wantLevels || ok != wantOK || *b != fresh {
			t.Errorf("block %d: recalibration after reset = (%d, %d, %v, %+v), want (%d, %d, %v, %+v)",
				i, probes, levels, ok, *b, wantProbes, wantLevels, wantOK, fresh)
		}
	}
}
