package core

import (
	"reflect"
	"testing"

	"flexlevel/internal/fault"
)

// TestZeroRateFaultConfigBitIdentical is the acceptance regression: a
// fault config with all rates zero must leave every metric bit-identical
// to a run without one.
func TestZeroRateFaultConfigBitIdentical(t *testing.T) {
	w := fastWorkload("fin-2", t)
	run := func(opts Options) Metrics {
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		m, err := replayWorkload(r, w)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, sys := range []System{Baseline, FlexLevel} {
		plain := run(fastOptions(sys, 6000))
		zeroed := fastOptions(sys, 6000)
		zeroed.SSD.Faults = fault.Config{Seed: 7} // present but zero rates
		if got := run(zeroed); !reflect.DeepEqual(plain, got) {
			t.Errorf("%v: zero-rate fault config changed metrics:\nplain: %+v\nfault: %+v", sys, plain, got)
		}
	}
}

// TestFaultyRunSurfacesReliabilityMetrics runs a workload with a blunt
// program-failure rate (program faults fire on every user write, so the
// test does not depend on GC frequency) and checks the counters flow
// through to Metrics.
func TestFaultyRunSurfacesReliabilityMetrics(t *testing.T) {
	opts := fastOptions(LDPCInSSD, 6000)
	opts.SSD.FTL.SpareBlocks = 8
	opts.SSD.Faults = fault.Config{
		Seed:    11,
		Program: fault.RateCurve{Base: 0.01},
		Read:    fault.RateCurve{Base: 0.001},
	}
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := replayWorkload(r, fastWorkload("fin-2", t))
	if err != nil {
		t.Fatal(err)
	}
	if m.ProgramFailures == 0 {
		t.Fatal("no program failures at 1% rate; injector not wired through core")
	}
	if m.RetiredBlocks < m.ProgramFailures {
		t.Errorf("RetiredBlocks %d < ProgramFailures %d", m.RetiredBlocks, m.ProgramFailures)
	}
	if m.SparesUsed > 8 {
		t.Errorf("SparesUsed = %d, want <= 8", m.SparesUsed)
	}
	// Preload alone sees ~40 program failures at 1%, so the lifetime
	// spare pool (not reset with the measurement counters) must have
	// been drawn down.
	if left := r.Device().FTL().SpareBlocksLeft(); left >= 8 {
		t.Errorf("SpareBlocksLeft = %d, want < 8", left)
	}
	if m.TransientReadFaults == 0 {
		t.Error("no transient read faults at 0.1% rate")
	}
	if m.Reads == 0 {
		t.Error("read count not populated")
	}
}
