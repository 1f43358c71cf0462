package ssd

import (
	"testing"
	"time"

	"flexlevel/internal/baseline"
	"flexlevel/internal/ftl"
)

func TestUnreadableTracked(t *testing.T) {
	// BER far beyond any sensing capability: every mapped read counts
	// as unreadable.
	d := newDevice(t, flatBER(0.1, 0), baseline.LDPCInSSD{})
	for i := 0; i < 10; i++ {
		d.Read(time.Duration(i)*time.Millisecond, uint64(i))
	}
	res := d.Results()
	if res.Unreadable != 10 {
		t.Errorf("Unreadable = %d, want 10", res.Unreadable)
	}
	if res.Refreshes != 0 {
		t.Errorf("Refreshes = %d without calibration, want 0", res.Refreshes)
	}
}

func TestAutoRefreshRestoresReadability(t *testing.T) {
	// Age-driven BER: old pages unreadable, rewritten pages fine.
	cfg := smallConfig()
	cfg.Calib = true
	berOf := func(state ftl.BlockState, pe, ageHours, shiftMv int) float64 {
		if ageHours > 100 {
			return 0.1 // hopeless
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
	// Find an old page.
	var victim uint64
	found := false
	for lpn := uint64(0); lpn < 512; lpn++ {
		if _, ok := d.Patrol(lpn, 0); !ok {
			victim, found = lpn, true
			break
		}
	}
	if !found {
		t.Fatal("no unreadable page despite aged preload")
	}
	d.Read(time.Second, victim)
	res := d.Results()
	if res.Unreadable != 1 || res.Refreshes != 1 {
		t.Fatalf("unreadable/refreshes = %d/%d, want 1/1", res.Unreadable, res.Refreshes)
	}
	// After the refresh the page reads clean.
	if _, ok := d.Patrol(victim, 2*time.Second); !ok {
		t.Error("page still unreadable after refresh")
	}
	d.Read(2*time.Second, victim)
	res = d.Results()
	if res.Unreadable != 1 {
		t.Errorf("refreshed page counted unreadable again: %d", res.Unreadable)
	}
}
