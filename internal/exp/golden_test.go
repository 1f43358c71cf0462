package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"flexlevel/internal/runner"
	"flexlevel/internal/sensing"
)

// update rewrites the golden files from the current output:
//
//	go test ./internal/exp -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenSim is the fixed configuration every golden file is generated
// with. Requests is kept small so the reliability sweep stays fast; the
// seed pins workload generation and all per-shard derived seeds.
func goldenSim() SimConfig {
	return SimConfig{Requests: 4000, Seed: 1, PE: 6000}
}

// checkGolden compares got against testdata/golden/<name>, rewriting
// the file when -update is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (run with -update if intended)\n got: %q\nwant: %q",
			name, got, want)
	}
}

// goldenSweep runs one sweep at several worker counts, asserts the CSV
// output is byte-identical across all of them, and checks the serial
// bytes against the golden file. This is the determinism contract of
// internal/runner made executable: results depend only on the master
// seed, never on scheduling.
func goldenSweep(t *testing.T, name string, sweep func(cfg SimConfig) ([]byte, error)) {
	t.Helper()
	var serial []byte
	for _, workers := range []int{1, 2, 3, 8} {
		cfg := goldenSim()
		cfg.Parallel = workers
		got, err := sweep(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			serial = got
			continue
		}
		if !bytes.Equal(got, serial) {
			t.Errorf("%s: parallel=%d output differs from serial\n got: %q\nwant: %q",
				name, workers, got, serial)
		}
	}
	checkGolden(t, name, serial)
}

// TestGoldenTable5 pins the required-sensing-level table. Table 5 is a
// closed-form function of the baseline model and the UBER rule, so it
// runs no engine sweep; the worker loop still guards its writer.
func TestGoldenTable5(t *testing.T) {
	goldenSweep(t, "table5.csv", func(SimConfig) ([]byte, error) {
		rows, err := Table5(sensing.DefaultRule())
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := WriteTable5CSV(&buf, rows); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// TestGoldenFig6aFig7 pins the Fig. 6(a) grid and the Fig. 7 endurance
// rows derived from it: one replay per worker count serves both files.
func TestGoldenFig6aFig7(t *testing.T) {
	var fig7 []byte
	goldenSweep(t, "fig6a.csv", func(cfg SimConfig) ([]byte, error) {
		data, err := Fig6a(cfg)
		if err != nil {
			return nil, err
		}
		var b6, b7 bytes.Buffer
		if err := WriteFig6aCSV(&b6, data); err != nil {
			return nil, err
		}
		if err := WriteFig7CSV(&b7, Fig7(data)); err != nil {
			return nil, err
		}
		if fig7 != nil && !bytes.Equal(b7.Bytes(), fig7) {
			t.Errorf("fig7.csv: parallel=%d output differs from serial", cfg.Parallel)
		}
		fig7 = b7.Bytes()
		return b6.Bytes(), nil
	})
	checkGolden(t, "fig7.csv", fig7)
}

// TestGoldenCrash pins the per-crash-point rows of the power-loss sweep.
func TestGoldenCrash(t *testing.T) {
	goldenSweep(t, "crash.csv", func(cfg SimConfig) ([]byte, error) {
		data, err := CrashRecovery(cfg, 4)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := WriteCrashCSV(&buf, data.Rows); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

func TestGoldenFig5(t *testing.T) {
	goldenSweep(t, "fig5.csv", func(cfg SimConfig) ([]byte, error) {
		rows, err := Fig5(cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := WriteFig5CSV(&buf, rows); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

func TestGoldenTable4(t *testing.T) {
	goldenSweep(t, "table4.csv", func(cfg SimConfig) ([]byte, error) {
		cells, err := Table4(cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := WriteTable4CSV(&buf, cells); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

func TestGoldenReliability(t *testing.T) {
	if testing.Short() {
		t.Skip("reliability sweep is slow")
	}
	goldenSweep(t, "reliability.csv", func(cfg SimConfig) ([]byte, error) {
		rows, err := Reliability(cfg, []float64{0, 1})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := WriteReliabilityCSV(&buf, rows); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// TestGoldenReliabilityRoundTrip pins the CSV reader to the writer: the
// golden file must parse back into rows that re-serialize to the same
// bytes.
func TestGoldenReliabilityRoundTrip(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "reliability.csv"))
	if err != nil {
		t.Skipf("no golden file yet: %v", err)
	}
	rows, err := ReadReliabilityCSV(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReliabilityCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Errorf("reliability CSV does not round-trip through ReadReliabilityCSV")
	}
}

// TestReliabilityParallelSpeedup asserts the acceptance criterion: on a
// machine with at least 8 cores, the parallel reliability sweep reports
// >= 3x wall-clock speedup over the summed shard time in its JSON
// summary. Skipped on smaller machines where the engine cannot win.
func TestReliabilityParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("reliability sweep is slow")
	}
	if n := runtime.GOMAXPROCS(0); n < 8 {
		t.Skipf("need >= 8 cores for the speedup bound, have %d", n)
	}
	var summary *runner.Summary
	cfg := SimConfig{Requests: 8000, Seed: 1, PE: 6000, Parallel: 8,
		OnSummary: func(s *runner.Summary) { summary = s }}
	if _, err := Reliability(cfg, []float64{0, 0.25, 1, 4}); err != nil {
		t.Fatal(err)
	}
	if summary == nil {
		t.Fatal("engine emitted no summary")
	}
	var buf bytes.Buffer
	if err := summary.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	t.Logf("summary: %s", buf.String())
	if summary.Speedup < 3 {
		t.Errorf("parallel speedup %.2fx, want >= 3x (summary %s)",
			summary.Speedup, buf.String())
	}
}

// TestSummaryEmitted checks every converted sweep reports through the
// engine with its expected name and a consistent shard count.
func TestSummaryEmitted(t *testing.T) {
	seen := map[string]int{}
	cfg := goldenSim()
	cfg.OnSummary = func(s *runner.Summary) { seen[s.Name] = s.Shards }
	if _, err := Fig5(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Table4(cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RetentionShares(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := HardECCStudy(cfg); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"fig5":     4,
		"table4":   len(PEPoints),
		"retshare": len(PEPoints) * len(RetentionTimes),
		"hardecc":  3,
	}
	for name, shards := range want {
		if seen[name] != shards {
			t.Errorf("sweep %s: %d shards in summary, want %d (seen: %v)",
				name, seen[name], shards, seen)
		}
	}
}

// TestReplaySummaryCounters checks the addCacheCounters contract: every
// sweep that replays a workload reports its ops plus the cache, latency
// and robustness keys in its engine summary, ablations included.
func TestReplaySummaryCounters(t *testing.T) {
	seen := map[string]*runner.Summary{}
	cfg := goldenSim()
	cfg.Requests = 300 // smoke-sized: only the summary keys matter
	cfg.OnSummary = func(s *runner.Summary) { seen[s.Name] = s }
	sweeps := []func() error{
		func() error { _, err := Fig6a(cfg); return err },
		func() error { _, err := Reliability(cfg, []float64{0}); return err },
		func() error { _, err := Adaptive(cfg); return err },
		func() error { _, err := Throughput(cfg); return err },
		func() error { _, err := Scenario(cfg, nil); return err },
		func() error { _, err := HLOAblation(cfg); return err },
		func() error { _, err := PoolSweep(cfg, []float64{0.25}); return err },
		func() error { _, err := ScrubAblation(cfg); return err },
		func() error { _, err := ChannelAblation(cfg, []int{1}); return err },
	}
	for _, run := range sweeps {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{"fig6a-pe6000", "reliability", "adaptive", "throughput", "scenario",
		"ablation-hlo", "ablation-pool", "ablation-scrub", "ablation-channels"}
	counters := []string{
		"level_cache_hits", "level_cache_misses", "level_cache_resets",
		"ber_cache_hits", "ber_cache_misses", "ber_cache_resets",
		"unreadable", "refreshes", "refresh_failures", "recalibrations",
		"calib_probes", "calib_rescues", "calib_rereads", "escalated_retirements",
	}
	for _, name := range names {
		s := seen[name]
		if s == nil {
			t.Errorf("sweep %s emitted no summary", name)
			continue
		}
		if want := int64(s.Shards * cfg.Requests); s.Ops != want {
			t.Errorf("sweep %s: %d ops, want %d", name, s.Ops, want)
		}
		for _, c := range counters {
			if _, ok := s.Counters[c]; !ok {
				t.Errorf("sweep %s: summary lacks counter %s", name, c)
			}
		}
		if v, ok := s.Gauges["p99_read_s"]; !ok || v <= 0 {
			t.Errorf("sweep %s: p99_read_s gauge = %g (present=%v), want positive", name, v, ok)
		}
		if s.Counters["level_cache_hits"]+s.Counters["level_cache_misses"] == 0 {
			t.Errorf("sweep %s: no level-cache activity recorded", name)
		}
	}
}
