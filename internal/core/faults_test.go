package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"flexlevel/internal/accesseval"
	"flexlevel/internal/fault"
	"flexlevel/internal/ftl"
	"flexlevel/internal/trace"
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

// TestSkippedMigrationLeavesPool drives a FlexLevel runner to the end of
// its write life (every erase grows a bad block, one spare, the small
// geometry the serve out-of-blocks test uses), then reads until
// AccessEval admits pages whose conversion the read-only device refuses.
// A skipped conversion leaves the page in normal state, so the admission
// must be taken back: every pool member is mapped in the reduced pool,
// and Migrations counts only moves that happened.
func TestSkippedMigrationLeavesPool(t *testing.T) {
	opts := DefaultOptions(FlexLevel, 6000)
	opts.SSD.Seed = 11
	opts.SSD.Faults = fault.Config{Seed: 1, Grown: fault.RateCurve{Base: 1}}
	opts.SSD.FTL = ftl.Config{
		LogicalPages:  2048,
		PagesPerBlock: 16,
		Blocks:        176,
		ReducedFactor: 0.75,
		GCThreshold:   3,
		GCTarget:      4,
		SpareBlocks:   1,
	}
	opts.AccessEval = accesseval.DefaultParams(2048)
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(nil, 2048); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var now time.Duration
	// Four tenants of 512 pages each, visited in turn.
	next := func(i int) uint64 { return uint64(i%4)*512 + uint64(rng.Intn(512)) }
	noBlock := false
	for i := 0; i < 3000 && !noBlock; i++ {
		done, err := r.StepAt(trace.Request{Arrival: now, Op: trace.Write, LPN: next(i), Pages: 1}, now)
		switch {
		case errors.Is(err, ftl.ErrNoFreeBlocks):
			noBlock = true
		case err != nil:
			t.Fatalf("write %d: %v", i, err)
		}
		now = max(now, done)
	}
	if !noBlock {
		t.Fatal("the device never ran out of free blocks")
	}
	for i := 0; i < 5000; i++ {
		done, err := r.StepAt(trace.Request{Arrival: now, Op: trace.Read, LPN: next(i), Pages: 1}, now)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		now = max(now, done)
	}
	members := 0
	for lpn := uint64(0); lpn < 2048; lpn++ {
		if !r.ctrl.InPool(lpn) {
			continue
		}
		members++
		if _, state, ok := r.Device().FTL().Lookup(lpn); !ok || state != ftl.ReducedState {
			t.Errorf("lpn %d is in the AccessEval pool but mapped %v (ok %v), not in the reduced pool", lpn, state, ok)
		}
	}
	if got := r.ctrl.Migrations() - r.ctrl.Evictions(); got != int64(members) {
		t.Errorf("Migrations - Evictions = %d, want the %d pages in the pool", got, members)
	}
	// The pool checks are done, so probe the controller with one more
	// read per page that needs one extra level: it admits a page this hot.
	admissible := 0
	for lpn := uint64(0); lpn < 2048; lpn++ {
		if r.ctrl.InPool(lpn) || r.ctrl.OnRead(lpn, 1).Migrate {
			admissible++
		}
	}
	if admissible == 0 {
		t.Fatal("the reads made no page hot enough for AccessEval to admit")
	}
}

// TestEvictionPowerLossTakesBackAdmission cuts power during the first
// eviction a read's admission forces. The read fails before the page it
// admitted is moved, so that page must not stay in the AccessEval pool.
func TestEvictionPowerLossTakesBackAdmission(t *testing.T) {
	opts := fastOptions(FlexLevel, 6000)
	opts.AccessEval.PoolPages = 8
	opts.AccessEval.Threshold = 1 // every read of a non-member admits it
	reads := func(i int) uint64 { return uint64(i*37) % opts.SSD.FTL.LogicalPages }
	prepare := func(opts Options) *Runner {
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Prepare(nil, opts.SSD.FTL.LogicalPages); err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Find the first evicting read and the media op its eviction starts at.
	r := prepare(opts)
	var now time.Duration
	victim, cut := -1, int64(0)
	for i := 0; i < 100 && victim < 0; i++ {
		ops, evictions := r.Device().FTL().MediaOps(), r.ctrl.Evictions()
		done, err := r.StepAt(trace.Request{Arrival: now, Op: trace.Read, LPN: reads(i), Pages: 1}, now)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if r.ctrl.Evictions() > evictions {
			victim, cut = i, ops
		}
		now = max(now, done)
	}
	if victim < 0 {
		t.Fatal("no read evicted a pool member")
	}
	// Replay with power lost on that media op.
	opts.SSD.Faults = fault.Config{Script: []fault.ScriptEvent{{Op: fault.PowerLoss, Index: cut}}}
	r = prepare(opts)
	now = 0
	for i := 0; i <= victim; i++ {
		done, err := r.StepAt(trace.Request{Arrival: now, Op: trace.Read, LPN: reads(i), Pages: 1}, now)
		if i < victim {
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			now = max(now, done)
			continue
		}
		if !errors.Is(err, ftl.ErrPowerLoss) || !strings.Contains(err.Error(), "evict") {
			t.Fatalf("read %d: error %v, want a power loss during the eviction", i, err)
		}
	}
	if lpn := reads(victim); r.ctrl.InPool(lpn) {
		t.Errorf("lpn %d stays in the AccessEval pool although power died before it moved", lpn)
	}
}

// TestStepAtReportsDroppedWrite: a write page whose program fails on
// every retry does not stop its request — the later pages are still
// written — but StepAt reports it as a *WriteError counting the stored
// pages, and the device counts the dropped write.
func TestStepAtReportsDroppedWrite(t *testing.T) {
	opts := fastOptions(Baseline, 6000)
	// Preloading 1024 pages makes program checks 0-1023; the next ones
	// fail, one more than the FTL retries: the request's first page is
	// dropped.
	for i := int64(0); i <= ftl.DefaultProgramRetries; i++ {
		opts.SSD.Faults.Script = append(opts.SSD.Faults.Script, fault.ScriptEvent{Op: fault.Program, Index: 1024 + i})
	}
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(nil, 1024); err != nil {
		t.Fatal(err)
	}
	done, err := r.StepAt(trace.Request{Op: trace.Write, LPN: 5, Pages: 3}, time.Second)
	var we *WriteError
	if !errors.As(err, &we) || !errors.Is(err, ftl.ErrWriteFailed) || we.Stored != 2 {
		t.Fatalf("StepAt = %v, want a *WriteError for ErrWriteFailed with 2 pages stored", err)
	}
	if done <= time.Second {
		t.Errorf("completion %v not after the submit time", done)
	}
	if m := r.Finish("dropped"); m.WriteFailures != 1 {
		t.Errorf("WriteFailures = %d, want 1", m.WriteFailures)
	}
}
