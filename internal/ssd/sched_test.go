package ssd

import (
	"errors"
	"math"
	"testing"
	"time"

	"flexlevel/internal/baseline"
	"flexlevel/internal/fault"
	"flexlevel/internal/ftl"
	"flexlevel/internal/sensing"
)

// TestLevelTableDeviceEquivalence checks the device's sensing-level
// table against the rule's bisection called directly: every read ends
// its FixedWorstCase{} escalation at exactly the level the rule gives for the
// BER the device evaluated, and flags exactly the pages the rule calls
// unreadable — across every level regime.
func TestLevelTableDeviceEquivalence(t *testing.T) {
	cfg := smallConfig()
	ber := func(_ ftl.BlockState, _, ageHours, _ int) float64 {
		// Log-sweep 1e-4..5e-2 over the preload's age range: every
		// sensing-level threshold lies inside it.
		return 1e-4 * math.Pow(500, float64(ageHours)/cfg.MaxDataAgeHours)
	}
	d, err := newWith(cfg, ber, baseline.FixedWorstCase{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(512); err != nil {
		t.Fatal(err)
	}
	var seen [sensing.MaxExtraLevels + 2]int // last slot: unreadable
	for i := 0; i < 4000; i++ {
		lpn := uint64(i*7) % 512
		unreadable := d.Results().Unreadable
		now := time.Duration(i) * time.Millisecond
		ppn, _, _ := d.ftl.Lookup(lpn)
		last := ber(ftl.NormalState, 0, int(d.ageHours(ppn, now)), 0)
		_, final := d.Read(now, lpn)
		want, ok := sensing.DefaultRule().RequiredLevels(last)
		if final != want {
			t.Fatalf("read %d at BER %g: device sensed %d levels, rule wants %d", i, last, final, want)
		}
		if flagged := d.Results().Unreadable > unreadable; flagged == ok {
			t.Fatalf("read %d at BER %g: device unreadable=%v, rule ok=%v", i, last, flagged, ok)
		}
		if ok {
			seen[want]++
		} else {
			seen[len(seen)-1]++
		}
	}
	for l, n := range seen {
		if n == 0 {
			t.Errorf("regime %d never exercised (last slot = unreadable): %v", l, seen)
		}
	}
}

// TestWriteFailureChargesOwningChannel is the regression test for the
// GC/migrate cost of an exhausted program retry landing unconditionally
// on channel 0: the flash work must be charged to the channel owning
// the block the FTL attributes the failure to.
func TestWriteFailureChargesOwningChannel(t *testing.T) {
	cfg := smallConfig()
	cfg.Channels = 4
	var script []fault.ScriptEvent
	for i := int64(0); i < 8; i++ { // > DefaultProgramRetries attempts
		script = append(script, fault.ScriptEvent{Op: fault.Program, Index: i})
	}
	cfg.Faults = fault.Config{Script: script}

	// Twin FTL with an identical injector learns which block the write
	// failure is attributed to (the device swallows the error by design).
	inj, err := fault.New(cfg.Faults)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := ftl.New(cfg.FTL)
	if err != nil {
		t.Fatal(err)
	}
	twin.Fault = inj.Fails
	_, _, werr := twin.Write(7, ftl.NormalState)
	if !errors.Is(werr, ftl.ErrWriteFailed) {
		t.Fatalf("twin write error = %v, want ErrWriteFailed", werr)
	}
	block, ok := ftl.FailedBlock(werr)
	if !ok {
		t.Fatal("ErrWriteFailed carries no block attribution")
	}

	d, err := newWith(cfg, flatBER(0, 0), baseline.FixedWorstCase{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(0, 7, ftl.NormalState); !errors.Is(err, ftl.ErrWriteFailed) || !ftl.WriteRefused(err) {
		t.Fatalf("failed write = %v, want a dropped ErrWriteFailed", err)
	}
	if got := d.Results().WriteFailures; got != 1 {
		t.Fatalf("WriteFailures = %d, want 1", got)
	}
	want := d.channelOf(block)
	if want == 0 {
		t.Fatalf("degenerate vector: failing block %d owned by channel 0", block)
	}
	for i, free := range d.chanFree {
		busy := free > 0
		if busy != (i == want) {
			t.Errorf("channel %d busy=%v; want the cost only on channel %d (owner of block %d)",
				i, busy, want, block)
		}
	}
}
