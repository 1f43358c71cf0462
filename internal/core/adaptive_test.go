package core

import (
	"math"
	"reflect"
	"testing"

	"flexlevel/internal/ftl"
	"flexlevel/internal/noise"
	"flexlevel/internal/ssd"
)

// Shifted evaluations memoize: the same probe repeated is a cache hit,
// and cached values agree with direct model evaluation.
func TestSurfaceShiftedMemo(t *testing.T) {
	s, err := newBERSurface("NUNMA 3", 6000, 720)
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := s.BER(ftl.NormalState, 6000, 720, -120)
	miss := s.Stats().Misses
	b, _, _ := s.BER(ftl.NormalState, 6000, 720.7, -120) // same quantized age
	if a != b {
		t.Errorf("memoized %g != %g", a, b)
	}
	st := s.Stats()
	if st.Misses != miss || st.Hits == 0 {
		t.Errorf("repeat probe was not a cache hit: %+v", st)
	}
	if direct := s.normal.TotalBERShifted(6000, 720, -0.120); a != direct {
		t.Errorf("cached %g != direct %g", a, direct)
	}
	// A drift-tracking negative shift recovers BER at high wear+age.
	if nominal, _, _ := s.BER(ftl.NormalState, 6000, 720, 0); a >= nominal {
		t.Error("negative shift did not reduce BER under heavy drift")
	}
}

// Inputs just outside the packed key's ranges are evaluated directly:
// the cache counters do not move, and the value equals the model's.
// The in-range neighbours of each point do pack, so the test pins the
// exact field edges.
func TestSurfaceKeyFallback(t *testing.T) {
	s, err := newBERSurface("NUNMA 3", 6000, 720)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		state   ftl.BlockState
		pe      int
		age     float64
		shiftMv int
		model   *noise.BERModel
	}{
		{ftl.NormalState, 1 << 24, 720, 0, s.normal.BERModel},
		{ftl.ReducedState, 6000, 1 << 26, -120, s.reduced.BERModel},
		{ftl.NormalState, 6000, 720, -2049, s.normal.BERModel},
		{ftl.ReducedState, 6000, 720, 2048, s.reduced.BERModel},
		{ftl.NormalState, -1, 720, 0, s.normal.BERModel},
		{ftl.NormalState, 6000, -1, 0, s.normal.BERModel},
	} {
		before := s.Stats()
		got, key, slot := s.BER(tc.state, tc.pe, tc.age, tc.shiftMv)
		if slot != nil {
			t.Errorf("BER(%v,%d,%g,%d) handed out a level slot", tc.state, tc.pe, tc.age, tc.shiftMv)
		}
		if st := s.Stats(); st != before {
			t.Errorf("BER(%v,%d,%g,%d) touched the cache: %+v -> %+v",
				tc.state, tc.pe, tc.age, tc.shiftMv, before, st)
		}
		want := tc.model.TotalBERShifted(tc.pe, float64(int(tc.age)), float64(tc.shiftMv)/1000)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("BER(%v,%d,%g,%d) = %g, direct %g", tc.state, tc.pe, tc.age, tc.shiftMv, got, want)
		}
		if key != ssd.LevelKey(got) {
			t.Errorf("BER(%v,%d,%g,%d) key %d, want LevelKey %d", tc.state, tc.pe, tc.age, tc.shiftMv, key, ssd.LevelKey(got))
		}
	}
	// Every field at its edges packs, and no two such inputs share a key.
	seen := map[int64]bool{}
	for _, state := range []ftl.BlockState{ftl.NormalState, ftl.ReducedState} {
		for _, pe := range []int{0, 1<<24 - 1} {
			for _, ageQ := range []int{0, 1<<26 - 1} {
				for _, shiftMv := range []int{-2048, 0, 2047} {
					key, ok := surfaceKey(state, pe, ageQ, shiftMv)
					if !ok {
						t.Errorf("surfaceKey(%v,%d,%d,%d) fell back; want it packed", state, pe, ageQ, shiftMv)
					}
					if seen[key] {
						t.Errorf("surfaceKey(%v,%d,%d,%d) = %#x collides", state, pe, ageQ, shiftMv, key)
					}
					seen[key] = true
				}
			}
		}
	}
}

// Enabling calibration in Options wires the full adaptive stack: the
// tracker on the device, the adaptive policy, and the shifted surface.
// Reduced-state reads never drift far enough to recalibrate, so the
// LDPC-in-SSD run is the one that shows the tracker at work.
func TestRunnerWiresAdaptiveStack(t *testing.T) {
	for _, sys := range []System{LevelAdjustOnly, LDPCInSSD} {
		opts := fastOptions(sys, 6000)
		opts.SSD.Calib = true
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		m, err := replayWorkload(r, fastWorkload("web-1", t))
		if err != nil {
			t.Fatal(err)
		}
		if m.Reads == 0 {
			t.Fatalf("%v: no reads replayed", sys)
		}
		if sys == LDPCInSSD && m.Recalibrations == 0 {
			t.Fatalf("%v: calibration tracker not wired: no read recalibrated", sys)
		}
		// The counters flow Device -> Results -> Metrics.
		res := r.Device().Results()
		if m.Recalibrations != res.Recalibrations || m.CalibProbes != res.CalibProbes ||
			m.Unreadable != res.Unreadable || m.Refreshes != res.Refreshes {
			t.Errorf("%v: metrics/results counter mismatch: %+v vs %+v", sys, m, res)
		}
	}
}

// With calibration disabled the runner is bit-identical to the
// pre-adaptive code: same policies, same read path, same metrics.
func TestRunnerWithoutCalibUnchanged(t *testing.T) {
	run := func() Metrics {
		r, err := NewRunner(fastOptions(LDPCInSSD, 6000))
		if err != nil {
			t.Fatal(err)
		}
		m, err := replayWorkload(r, fastWorkload("web-1", t))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := run()
	if m.Recalibrations != 0 || m.CalibProbes != 0 || m.CalibRescues != 0 ||
		m.EscalatedRetirements != 0 {
		t.Errorf("adaptive counters active without calibration: %+v", m)
	}
	if m2 := run(); !reflect.DeepEqual(m, m2) {
		t.Error("runner nondeterministic")
	}
}
