package ssd

import (
	"errors"
	"testing"
	"time"

	"flexlevel/internal/baseline"
	"flexlevel/internal/fault"
	"flexlevel/internal/ftl"
)

// driftBER is the BER of a drifted Vth landscape: pages older than
// 100 hours are unreadable at the nominal references but decode cleanly
// once the read shift is within 50mV of -120mV. Younger pages decode
// cleanly everywhere.
func driftBER(state ftl.BlockState, pe, ageHours, shiftMv int) float64 {
	if ageHours <= 100 {
		return 1e-4
	}
	d := shiftMv + 120
	if d < 0 {
		d = -d
	}
	if d <= 50 {
		return 1e-4 // recovered: references track the drift
	}
	return 0.1 // hopeless at stale references
}

// newAdaptiveDevice builds a preloaded device with the adaptive ladder
// enabled against the drifted landscape.
func newAdaptiveDevice(t *testing.T, mutate func(*Config)) *Device {
	t.Helper()
	cfg := smallConfig()
	cfg.Calib = true
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := newWith(cfg, driftBER, baseline.AdaptiveRetry{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(512); err != nil {
		t.Fatal(err)
	}
	return d
}

// agedVictim finds a preloaded page old enough to be unreadable at the
// nominal references.
func agedVictim(t *testing.T, d *Device) uint64 {
	t.Helper()
	for lpn := uint64(0); lpn < 512; lpn++ {
		if _, ok := d.Patrol(lpn, 0); !ok {
			return lpn
		}
	}
	t.Fatal("no unreadable page despite aged preload")
	return 0
}

func TestAdaptiveLadderRescuesDriftedPage(t *testing.T) {
	d := newAdaptiveDevice(t, nil)
	victim := agedVictim(t, d)
	resp, final := d.Read(time.Second, victim)
	res := d.Results()
	if res.Unreadable != 0 {
		t.Errorf("Unreadable = %d after rescue, want 0", res.Unreadable)
	}
	if res.CalibRescues != 1 || res.Recalibrations != 1 {
		t.Errorf("rescues/recalibrations = %d/%d, want 1/1", res.CalibRescues, res.Recalibrations)
	}
	if res.CalibProbes == 0 {
		t.Error("rescue reported without any probes")
	}
	if final >= 7 {
		t.Errorf("final sensing level %d, want a clean decode after retune", final)
	}
	// The recalibration and re-read were charged: the response exceeds
	// what the failed attempt ladder alone would cost.
	if resp <= 0 {
		t.Errorf("non-positive response %v", resp)
	}
	if s := d.ram[victimBlock(d, victim)].cal.ShiftMv(); s >= 0 {
		t.Errorf("calibrated shift %dmV, want negative (drift is downward)", s)
	}
	// The next read of the same block serves at the calibrated shift
	// with no further recalibration.
	d.Read(2*time.Second, victim)
	res = d.Results()
	if res.Recalibrations != 1 {
		t.Errorf("stable block recalibrated again: %d", res.Recalibrations)
	}
	if res.Unreadable != 0 {
		t.Error("calibrated block unreadable on the follow-up read")
	}
}

// TestCalibratedLadderEscalates: calibration alone arms the whole
// ladder. A page hopeless at every read-reference shift exhausts stage
// 2's probe budget without a rescue, so stage 3 refreshes it in place;
// when every program fails, the refused refresh escalates to stage 4
// and the block is retired.
func TestCalibratedLadderEscalates(t *testing.T) {
	hopeless := func(state ftl.BlockState, pe, ageHours, shiftMv int) float64 {
		if ageHours > 100 {
			return 0.1 // no shift recovers it
		}
		return 1e-4
	}
	read := func(t *testing.T, faults fault.Config) Results {
		t.Helper()
		cfg := smallConfig()
		cfg.Calib = true
		cfg.Faults = faults
		d, err := newWith(cfg, hopeless, baseline.AdaptiveRetry{})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Preload(512); err != nil {
			t.Fatal(err)
		}
		d.Read(time.Second, agedVictim(t, d))
		res := d.Results()
		if res.Recalibrations != 1 || res.CalibProbes != 8 || res.CalibRescues != 0 {
			t.Errorf("recalibrations/probes/rescues = %d/%d/%d, want 1/8/0 (stage 2 spends its budget and fails)",
				res.Recalibrations, res.CalibProbes, res.CalibRescues)
		}
		if res.Unreadable != 1 {
			t.Errorf("Unreadable = %d, want 1", res.Unreadable)
		}
		return res
	}
	t.Run("refresh", func(t *testing.T) {
		res := read(t, fault.Config{})
		if res.Refreshes != 1 || res.RefreshFailures != 0 || res.EscalatedRetirements != 0 {
			t.Errorf("refreshes/failures/retirements = %d/%d/%d, want 1/0/0",
				res.Refreshes, res.RefreshFailures, res.EscalatedRetirements)
		}
	})
	t.Run("retire", func(t *testing.T) {
		// Preload issues exactly 512 program checks; fail every program
		// the refresh and its retry cascade can issue afterwards.
		var script []fault.ScriptEvent
		for i := int64(512); i < 612; i++ {
			script = append(script, fault.ScriptEvent{Op: fault.Program, Index: i})
		}
		res := read(t, fault.Config{Script: script})
		if res.Refreshes != 0 || res.RefreshFailures != 1 || res.EscalatedRetirements != 1 {
			t.Errorf("refreshes/failures/retirements = %d/%d/%d, want 0/1/1",
				res.Refreshes, res.RefreshFailures, res.EscalatedRetirements)
		}
	})
}

func victimBlock(d *Device, lpn uint64) int {
	ppn, _, _ := d.ftl.Lookup(lpn)
	return int(ppn) / d.cfg.FTL.PagesPerBlock
}

// Satellite regression: a refused refresh must be counted and must not
// lose data. Degraded mode is the deterministic way to refuse one — the
// FTL rejects the rewrite, the ladder has nowhere to escalate (retiring
// in degraded mode would only shrink capacity further), and the page
// stays readable where it is.
func TestRefreshFailureCountedInDegradedMode(t *testing.T) {
	cfg := smallConfig()
	cfg.Calib = true
	berOf := func(state ftl.BlockState, pe, ageHours, shiftMv int) float64 {
		if ageHours > 100 {
			return 0.1
		}
		return 1e-4
	}
	d, err := newWith(cfg, berOf, baseline.LDPCInSSD{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(512); err != nil {
		t.Fatal(err)
	}
	// Retire blocks until the FTL gives up spare capacity and degrades.
	// Free and spare blocks hold no data and are refused.
	for b := 0; b < cfg.FTL.Blocks && !d.ftl.Degraded(); b++ {
		if d.ftl.BadBlock(b) {
			continue
		}
		if _, err := d.ftl.RetireBlock(b); err != nil && !errors.Is(err, ftl.ErrEmptyBlock) {
			t.Fatal(err)
		}
	}
	if !d.ftl.Degraded() {
		t.Fatal("could not drive the FTL into degraded mode")
	}
	victim := agedVictim(t, d)
	d.Read(time.Second, victim)
	res := d.Results()
	if res.Unreadable != 1 {
		t.Fatalf("Unreadable = %d, want 1", res.Unreadable)
	}
	if res.Refreshes != 0 {
		t.Errorf("Refreshes = %d in degraded mode, want 0", res.Refreshes)
	}
	if res.RefreshFailures != 1 {
		t.Errorf("RefreshFailures = %d, want 1 (was dropped silently before)", res.RefreshFailures)
	}
	if res.EscalatedRetirements != 0 {
		t.Errorf("EscalatedRetirements = %d in degraded mode, want 0", res.EscalatedRetirements)
	}
	// Zero data loss: the page is still mapped and served.
	if !d.ftl.Mapped(victim) {
		t.Error("refresh failure lost the page mapping")
	}
}

// Satellite regression: when the refresh fails because the flash cannot
// program (not because the device is degraded), the ladder escalates to
// retiring the victim block instead of leaving data on a decaying block.
func TestRefreshFailureEscalatesToRetirement(t *testing.T) {
	cfg := smallConfig()
	cfg.Calib = true
	// Preload issues exactly 512 program checks (512 pages, no journal,
	// no GC at this occupancy); fail every program attempt the refresh
	// and its retry cascade can issue afterwards.
	var script []fault.ScriptEvent
	for i := int64(512); i < 612; i++ {
		script = append(script, fault.ScriptEvent{Op: fault.Program, Index: i})
	}
	cfg.Faults = fault.Config{Script: script}
	berOf := func(state ftl.BlockState, pe, ageHours, shiftMv int) float64 {
		if ageHours > 100 {
			return 0.1
		}
		return 1e-4
	}
	d, err := newWith(cfg, berOf, baseline.LDPCInSSD{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(512); err != nil {
		t.Fatal(err)
	}
	victim := agedVictim(t, d)
	vb := victimBlock(d, victim)
	d.Read(time.Second, victim)
	res := d.Results()
	if res.Refreshes != 0 {
		t.Errorf("Refreshes = %d with every program failing, want 0", res.Refreshes)
	}
	if res.RefreshFailures != 1 {
		t.Errorf("RefreshFailures = %d, want 1", res.RefreshFailures)
	}
	if res.EscalatedRetirements != 1 {
		t.Errorf("EscalatedRetirements = %d, want 1", res.EscalatedRetirements)
	}
	if !d.ftl.BadBlock(vb) {
		t.Errorf("victim block %d not retired", vb)
	}
	// Zero data loss: retirement relocates what it can and leaves the
	// rest mapped in place on the (readable) bad block.
	if !d.ftl.Mapped(victim) {
		t.Error("escalation lost the page mapping")
	}
}

// A device with calibration disabled reads every page at the nominal
// references: it is bit-identical to a device whose BER ignores the
// shift altogether, so the adaptive machinery is completely inert
// unless Config.Calib enables it.
func TestDisabledCalibInert(t *testing.T) {
	run := func(berOf BERFunc) Results {
		d, err := newWith(smallConfig(), berOf, baseline.LDPCInSSD{})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Preload(512); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			d.Read(time.Duration(i)*time.Millisecond, uint64(i%512))
		}
		return d.Results()
	}
	nominal := func(state ftl.BlockState, pe, ageHours, _ int) float64 {
		return driftBER(state, pe, ageHours, 0)
	}
	a, b := run(nominal), run(driftBER)
	if a.ReadResp != b.ReadResp || a.Unreadable != b.Unreadable || a.LevelHist != b.LevelHist {
		t.Error("a shift-dependent BER perturbed a calibration-disabled device")
	}
	if b.Unreadable == 0 {
		t.Error("no page read unreadable at the nominal references; fixture broken?")
	}
	if b.Recalibrations != 0 || b.CalibProbes != 0 {
		t.Errorf("disabled calibration recalibrated: %d/%d", b.Recalibrations, b.CalibProbes)
	}
}

// Power loss drops every block's record (controller RAM): after Restart
// the block recalibrates from scratch on its next read, and its retry
// memory starts over at hard-decision sensing.
func TestCrashResetsCalibration(t *testing.T) {
	d := newAdaptiveDevice(t, func(cfg *Config) {
		cfg.FTL.Journal = ftl.JournalConfig{Enabled: true}
	})
	victim := agedVictim(t, d)
	d.Read(time.Second, victim)
	vb := victimBlock(d, victim)
	if d.ram[vb].cal.ShiftMv() == 0 {
		t.Fatal("read did not calibrate the victim block")
	}
	d.ram[(vb+1)%d.cfg.FTL.Blocks].retry(d.policy, nil, 5)
	d.Crash()
	if _, err := d.Restart(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for b, r := range d.ram {
		if r != (blockRAM{}) {
			t.Errorf("block %d: record %+v survived the power loss", b, r)
		}
	}
	d.Read(3*time.Second, victim)
	if res := d.Results(); res.Recalibrations != 2 {
		t.Errorf("Recalibrations = %d after crash, want 2 (one per boot)", res.Recalibrations)
	}
}
