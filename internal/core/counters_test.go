package core

import (
	"errors"
	"testing"

	"flexlevel/internal/fault"
	"flexlevel/internal/ftl"
	"flexlevel/internal/ssd"
	"flexlevel/internal/trace"
)

// TestCacheCountersPinned pins the read-path memo's counters, level
// cache and BER surface alike, for a few runs that between them take
// every path through it: the four systems on fin-2 (dense window), one
// calibrated cell (shifted reads on the surface's map) and one crash
// and restart (the level cache dropped under live slots). The values
// are literal, so a change to either memo's keying, window, cap or
// counting shows here, under go test, and not only in a benchmark
// digest.
func TestCacheCountersPinned(t *testing.T) {
	type counters struct{ level, ber ssd.CacheStats }
	fin2 := func(t *testing.T, opts Options, n int) []trace.Request {
		t.Helper()
		w, err := trace.ByName("fin-2", n, opts.SSD.FTL.LogicalPages, 1)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := w.Generate()
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	replay := func(t *testing.T, opts Options, n int) counters {
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Replay(nil, "fin-2", fin2(t, opts, n), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return counters{m.LevelCache, m.BERCache}
	}
	crash := func(t *testing.T) counters {
		opts := fastOptions(LDPCInSSD, 6000)
		opts.SSD.FTL.Journal = ftl.JournalConfig{Enabled: true}
		opts.SSD.Faults = fault.Config{Script: []fault.ScriptEvent{{Op: fault.PowerLoss, Index: 1500}}}
		reqs := fin2(t, opts, 4000)
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Prepare(reqs, 0); err != nil {
			t.Fatal(err)
		}
		crashed := false
		for _, req := range reqs {
			if err := r.Step(req); err != nil {
				if !errors.Is(err, ftl.ErrPowerLoss) || crashed {
					t.Fatal(err)
				}
				crashed = true
				if _, err := r.Device().Restart(req.Arrival); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !crashed {
			t.Fatal("the power loss never fired")
		}
		m := r.Finish("fin-2")
		return counters{m.LevelCache, m.BERCache}
	}
	calibrated := fastOptions(LDPCInSSD, 6000)
	calibrated.SSD.Calib = true
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) counters
		want counters
	}{
		{"baseline", func(t *testing.T) counters { return replay(t, DefaultOptions(Baseline, 6000), 4000) }, counters{ssd.CacheStats{Hits: 3547, Misses: 387}, ssd.CacheStats{Hits: 3547, Misses: 387}}},
		{"ldpc-in-ssd", func(t *testing.T) counters { return replay(t, DefaultOptions(LDPCInSSD, 6000), 4000) }, counters{ssd.CacheStats{Hits: 3547, Misses: 387}, ssd.CacheStats{Hits: 3547, Misses: 387}}},
		{"leveladjust-only", func(t *testing.T) counters { return replay(t, DefaultOptions(LevelAdjustOnly, 6000), 4000) }, counters{ssd.CacheStats{Hits: 3933, Misses: 1}, ssd.CacheStats{Hits: 3933, Misses: 1}}},
		{"flexlevel", func(t *testing.T) counters { return replay(t, DefaultOptions(FlexLevel, 6000), 4000) }, counters{ssd.CacheStats{Hits: 3547, Misses: 387}, ssd.CacheStats{Hits: 3547, Misses: 387}}},
		{"calibrated", func(t *testing.T) counters { return replay(t, calibrated, 4000) }, counters{ssd.CacheStats{Hits: 3670, Misses: 389}, ssd.CacheStats{Hits: 3670, Misses: 389}}},
		{"crash-restart", crash, counters{ssd.CacheStats{Hits: 3504, Misses: 427, Resets: 1}, ssd.CacheStats{Hits: 3639, Misses: 292}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != tc.want {
				t.Errorf("level cache %+v, BER surface %+v; want %+v, %+v", got.level, got.ber, tc.want.level, tc.want.ber)
			}
		})
	}
}
