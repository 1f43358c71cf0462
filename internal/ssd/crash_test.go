package ssd

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"flexlevel/internal/baseline"
	"flexlevel/internal/fault"
	"flexlevel/internal/ftl"
)

// crashDeviceConfig enables the metadata journal (test-scale cadence)
// and scripts a power loss at the crashAt-th physical media operation.
func crashDeviceConfig(crashAt int64) Config {
	cfg := smallConfig()
	cfg.FTL.Blocks = 46
	cfg.FTL.SpareBlocks = 2
	cfg.FTL.Journal = ftl.JournalConfig{Enabled: true, FlushRecords: 8, CheckpointEveryFlushes: 3}
	cfg.Faults = fault.Config{Script: []fault.ScriptEvent{{Op: fault.PowerLoss, Index: crashAt}}}
	return cfg
}

// driveToCrash runs a deterministic read/write mix until the scripted
// power loss surfaces, returning the set of acknowledged LPNs and the
// simulation time of the cut.
func driveToCrash(t *testing.T, d *Device) (map[uint64]bool, time.Duration) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	acked := make(map[uint64]bool)
	var now time.Duration
	for i := 0; i < 5000; i++ {
		lpn := uint64(rng.Intn(512))
		if rng.Intn(4) == 0 {
			d.Read(now, lpn)
		} else {
			if _, err := d.Write(now, lpn, ftl.NormalState); err != nil {
				if !errors.Is(err, ftl.ErrPowerLoss) {
					t.Fatalf("write: %v", err)
				}
				return acked, now
			}
			acked[lpn] = true
		}
		now += time.Millisecond
	}
	t.Fatal("scripted power loss never fired")
	return nil, 0
}

func TestCrashRestartRoundTrip(t *testing.T) {
	cfg := crashDeviceConfig(900)
	d, err := newWith(cfg, flatBER(1e-4, 1e-4), baseline.LDPCInSSD{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(256); err != nil {
		t.Fatal(err)
	}
	acked, now := driveToCrash(t, d)
	if !d.Crashed() {
		t.Fatal("device not marked crashed after ErrPowerLoss")
	}
	preStats := d.Results()
	if preStats.Crashes != 1 || preStats.InFlightLost != 1 {
		t.Fatalf("crashes=%d inFlightLost=%d, want 1/1", preStats.Crashes, preStats.InFlightLost)
	}
	// Powered off: no service in either direction.
	if _, err := d.Write(now, 1, ftl.NormalState); !errors.Is(err, ftl.ErrPowerLoss) {
		t.Fatalf("write on crashed device: %v, want ErrPowerLoss", err)
	}
	if err := d.Migrate(now, 1, ftl.ReducedState); !errors.Is(err, ftl.ErrPowerLoss) {
		t.Fatalf("migrate on crashed device: %v, want ErrPowerLoss", err)
	}
	if resp, _ := d.Read(now, 1); resp != 0 {
		t.Fatalf("read on crashed device returned response %v", resp)
	}

	rep, err := d.Restart(now)
	if err != nil {
		t.Fatal(err)
	}
	if d.Crashed() {
		t.Fatal("device still crashed after successful restart")
	}
	if rep.TotalReads() == 0 {
		t.Fatal("recovery reported zero reads")
	}
	res := d.Results()
	if res.RecoveryReads != int64(rep.TotalReads()) || res.RecoveryTime <= 0 {
		t.Fatalf("recovery accounting: reads=%d time=%v", res.RecoveryReads, res.RecoveryTime)
	}
	if res.FTL.UserPrograms < preStats.FTL.UserPrograms {
		t.Fatalf("FTL stats went backwards across restart: %d < %d",
			res.FTL.UserPrograms, preStats.FTL.UserPrograms)
	}

	// Zero acknowledged-write loss: every acked LPN (and the preloaded
	// footprint) is still mapped.
	for lpn := range acked {
		if !d.FTL().Mapped(lpn) {
			t.Errorf("acked lpn %d lost across the crash", lpn)
		}
	}
	for lpn := uint64(0); lpn < 256; lpn++ {
		if !d.FTL().Mapped(lpn) {
			t.Errorf("preloaded lpn %d lost across the crash", lpn)
		}
	}

	// The device serves again, and the first read pays the recovery
	// busy time (every channel was held until recovery completed).
	resp, _ := d.Read(now, 0)
	if resp < res.RecoveryTime {
		t.Fatalf("first post-restart read response %v < recovery time %v", resp, res.RecoveryTime)
	}
	if _, err := d.Write(d.Now(), 99, ftl.NormalState); err != nil {
		t.Fatalf("post-restart write: %v", err)
	}
	if got := d.Results().FTL.UserPrograms; got < preStats.FTL.UserPrograms+1 {
		t.Fatalf("post-restart programs not accumulated: %d", got)
	}
}

func TestRestartMisuse(t *testing.T) {
	// A running device refuses Restart.
	d := newDevice(t, flatBER(0, 0), baseline.FixedWorstCase{})
	if _, err := d.Restart(0); err == nil {
		t.Fatal("restart of a running device succeeded")
	}
	// A crashed device without a journal cannot recover.
	d.Crash()
	if !d.Crashed() {
		t.Fatal("Crash() did not mark the device crashed")
	}
	if _, err := d.Restart(0); err == nil {
		t.Fatal("restart without a journaled FTL succeeded")
	}
}

func TestCrashDuringRestart(t *testing.T) {
	cfg := crashDeviceConfig(600)
	// A second power cut on the very next media operation lands inside
	// recovery's final checkpoint write.
	cfg.Faults.Script = append(cfg.Faults.Script, fault.ScriptEvent{Op: fault.PowerLoss, Index: 601})
	d, err := newWith(cfg, flatBER(1e-4, 1e-4), baseline.LDPCInSSD{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(128); err != nil {
		t.Fatal(err)
	}
	acked, now := driveToCrash(t, d)
	if _, err := d.Restart(now); !errors.Is(err, ftl.ErrPowerLoss) {
		t.Fatalf("restart should have been cut by the second power loss: %v", err)
	}
	if !d.Crashed() {
		t.Fatal("device not crashed after recovery was cut")
	}
	// The image is untouched by the failed recovery: a second restart
	// succeeds and the ack contract still holds.
	if _, err := d.Restart(now); err != nil {
		t.Fatalf("second restart: %v", err)
	}
	for lpn := range acked {
		if !d.FTL().Mapped(lpn) {
			t.Errorf("acked lpn %d lost across crash-during-recovery", lpn)
		}
	}
	if got := d.Results().Crashes; got != 1 {
		// The recovery cut is part of the same outage: Crash() was
		// never re-invoked by the host, so one crash is recorded.
		t.Fatalf("crashes=%d, want 1", got)
	}
}
