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
	tr := New()
	// Retention drift moved the distributions down ~120mV: the optimal
	// read-reference shift is −120mV and each 40mV of error costs one
	// extra sensing level.
	eval := convexEval(-120, 40)
	entryLev, _ := eval(tr.ShiftMv(3))
	var lastLev int
	improved := false
	for i := 0; i < 4; i++ {
		prevLev, _ := eval(tr.ShiftMv(3))
		probes, lev, ok := tr.Calibrate(3, eval)
		if probes > maxProbes {
			t.Fatalf("round %d: %d probes, budget %d", i, probes, maxProbes)
		}
		if !ok {
			t.Fatalf("round %d: unreadable at shift %dmV", i, tr.ShiftMv(3))
		}
		improved = improved || lev < prevLev
		lastLev = lev
	}
	if lastLev > 0 {
		t.Errorf("converged to %d levels at %dmV, want 0 near -120mV", lastLev, tr.ShiftMv(3))
	}
	if lastLev > entryLev {
		t.Errorf("calibration regressed: entry %d levels, final %d", entryLev, lastLev)
	}
	if !improved {
		t.Error("no round of 4 lowered the block's levels")
	}
}

func TestCalibrateRescuesUnreadable(t *testing.T) {
	tr := New()
	// Unreadable at the nominal references (8+ levels needed), readable
	// within 40mV of −80mV.
	eval := convexEval(-80, 10)
	if _, ok := eval(0); ok {
		t.Fatal("test eval should be unreadable at shift 0")
	}
	_, lev, ok := tr.Calibrate(9, eval)
	if !ok {
		t.Fatalf("calibration failed to rescue: %d levels at %dmV", lev, tr.ShiftMv(9))
	}
	if got, readable := eval(tr.ShiftMv(9)); got != lev || !readable {
		t.Errorf("Calibrate reported %d levels, readable, but its shift %dmV re-senses to %d, %v", lev, tr.ShiftMv(9), got, readable)
	}
}

// Property: for any optimum and any history of rounds the search
// respects the probe budget, the shift bound, and never leaves the block
// worse than it entered.
func TestCalibrateProperties(t *testing.T) {
	f := func(optRaw int16, rounds uint8) bool {
		tr := New()
		opt := int(optRaw) % 400
		eval := convexEval(opt, 25)
		prevLev, prevOK := eval(0)
		for i := 0; i < int(rounds)%5+1; i++ {
			probes, lev, ok := tr.Calibrate(1, eval)
			if probes < 1 || probes > maxProbes {
				return false
			}
			s := tr.ShiftMv(1)
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
		tr := New()
		eval := convexEval(-160, 30)
		var rounds [3]round
		for i := range rounds {
			rounds[i].probes, rounds[i].levels, _ = tr.Calibrate(7, eval)
		}
		return tr.ShiftMv(7), rounds
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 || r1 != r2 {
		t.Errorf("nondeterministic: (%d, %+v) vs (%d, %+v)", s1, r1, s2, r2)
	}
}

func TestObserveGating(t *testing.T) {
	tr := New() // low-water mark 2
	if tr.Observe(1, 0, true) || tr.Observe(1, 1, true) {
		t.Error("below low-water reads must not trigger calibration")
	}
	if !tr.Observe(1, 2, true) {
		t.Error("low-water read of an uncalibrated block must trigger")
	}
	if !tr.Observe(1, 3, false) {
		t.Error("unreadable outcome must always trigger")
	}
	// After a calibration that settles at 2 levels, only further drift
	// re-triggers.
	tr.Calibrate(1, func(int) (int, bool) { return 2, true })
	if tr.Observe(1, 2, true) {
		t.Error("stable block re-triggered calibration")
	}
	if !tr.Observe(1, 3, true) {
		t.Error("drift past the calibrated level must re-trigger")
	}
}

func TestForgetAndReset(t *testing.T) {
	tr := New()
	tr.Calibrate(4, convexEval(-100, 20))
	if tr.ShiftMv(4) == 0 {
		t.Fatal("calibration did not move the shift")
	}
	tr.Forget(4)
	if tr.ShiftMv(4) != 0 || len(tr.blocks) != 0 {
		t.Error("Forget left calibration state behind")
	}
	tr.Calibrate(5, convexEval(-100, 20))
	tr.Calibrate(6, convexEval(-50, 20))
	tr.Reset()
	if len(tr.blocks) != 0 || tr.ShiftMv(5) != 0 {
		t.Error("Reset left calibration state behind")
	}
}
