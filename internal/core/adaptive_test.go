package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"flexlevel/internal/ftl"
)

// The physics a runner's surface memoizes is the state's model,
// bit for bit: a nominal point's hoisted interference term sums in
// TotalBERShifted's operand order, and a block state the models do not
// name reads as a normal block.
func TestPhysicsMatchesModel(t *testing.T) {
	p, err := newPhysics("NUNMA 3")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		state := ftl.BlockState(rng.Intn(3))
		pe, age, shiftMv := rng.Intn(12000), rng.Intn(3000), 0
		if rng.Intn(3) == 0 {
			shiftMv = rng.Intn(401) - 200
		}
		m := p.normal.BERModel
		if state == ftl.ReducedState {
			m = p.reduced.BERModel
		}
		got, want := p.ber(state, pe, age, shiftMv), m.TotalBERShifted(pe, float64(age), float64(shiftMv)/1000)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ber(%v,%d,%d,%d) = %g, model %g", state, pe, age, shiftMv, got, want)
		}
	}
	if _, err := newPhysics("baseline"); err == nil {
		t.Error("the baseline cell accepted as a reduced-state configuration")
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
