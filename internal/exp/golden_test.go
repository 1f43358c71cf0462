package exp

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"flexlevel/internal/runner"
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

// goldenInputs are the sweep inputs every golden file is generated
// with: 4 crash points, fault scales {0, 1}, the scaled-down lifetime
// device and the built-in tenant mix.
func goldenInputs() Inputs {
	return Inputs{CrashPoints: 4, FaultScales: []float64{0, 1}, Lifetime: goldenLifetimeParams()}
}

// stdoutKey is where sweepOutputs files the sweeps' text among the
// artifacts.
const stdoutKey = "<stdout>"

// sweepMemo keeps each successful sweepOutputs result for the life of
// the test binary, keyed by entry list and worker count: the goldens
// and TestSweepsDeterministic ask for the same runs, and the output is
// a pure function of the key.
var sweepMemo struct {
	sync.Mutex
	m map[string]map[string][]byte
}

// sweepOutputs runs the named registry entries in one Env, as `flexlevel
// all` does, at the golden config with the given worker count. It
// returns every artifact they emit plus their text under stdoutKey;
// callers must not modify the result, which is shared through
// sweepMemo.
func sweepOutputs(t *testing.T, workers int, names ...string) map[string][]byte {
	t.Helper()
	key := fmt.Sprint(workers, names)
	sweepMemo.Lock()
	defer sweepMemo.Unlock()
	if out, ok := sweepMemo.m[key]; ok {
		return out
	}
	cfg := goldenSim()
	cfg.Parallel = workers
	var stdout bytes.Buffer
	out := map[string][]byte{}
	env := &Env{Sim: cfg, In: goldenInputs(), Out: &stdout,
		Emit: func(name string, write func(io.Writer) error) error {
			var b bytes.Buffer
			err := write(&b)
			out[name] = b.Bytes()
			return err
		}}
	for _, name := range names {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("no registered sweep %q", name)
		}
		if err := s.Run(env); err != nil {
			t.Fatalf("%s, workers=%d: %v", name, workers, err)
		}
	}
	out[stdoutKey] = stdout.Bytes()
	if sweepMemo.m == nil {
		sweepMemo.m = map[string]map[string][]byte{}
	}
	sweepMemo.m[key] = out
	return out
}

// sameOutputs asserts a run at workers emitted exactly the serial run's
// text and artifacts, byte for byte.
func sameOutputs(t *testing.T, workers int, serial, got map[string][]byte) {
	t.Helper()
	for name, want := range serial {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: parallel=%d did not emit it", name, workers)
		} else if !bytes.Equal(g, want) {
			t.Errorf("%s: parallel=%d output differs from serial\n got: %q\nwant: %q",
				name, workers, g, want)
		}
	}
	for name := range got {
		if _, ok := serial[name]; !ok {
			t.Errorf("%s: emitted at parallel=%d only", name, workers)
		}
	}
}

// goldenSweep runs the named registry entries at several worker counts,
// asserts their text and every artifact are byte-identical across all
// of them, and checks each serial CSV artifact against its golden file.
// This is the determinism contract of internal/runner made executable:
// results depend only on the master seed, never on scheduling.
func goldenSweep(t *testing.T, names ...string) {
	t.Helper()
	serial := sweepOutputs(t, 1, names...)
	for _, workers := range []int{2, 3, 8} {
		sameOutputs(t, workers, serial, sweepOutputs(t, workers, names...))
	}
	pinned := 0
	for name, got := range serial {
		if strings.HasSuffix(name, ".csv") {
			checkGolden(t, name, got)
			pinned++
		}
	}
	if pinned == 0 {
		t.Fatalf("%v emitted no CSV artifact to pin", names)
	}
}

// TestGoldenTable5 pins the required-sensing-level table. Table 5 is a
// closed-form function of the baseline model and the UBER rule, so it
// runs no engine sweep; the worker loop still guards its writer.
func TestGoldenTable5(t *testing.T) {
	goldenSweep(t, "table5")
}

// TestGoldenFig6aFig7 pins the Fig. 6(a) grid and the Fig. 7 endurance
// rows derived from it: one replay per worker count serves both files.
func TestGoldenFig6aFig7(t *testing.T) {
	goldenSweep(t, "fig6a", "fig7")
}

// TestGoldenCrash pins the per-crash-point rows of the power-loss sweep.
func TestGoldenCrash(t *testing.T) {
	goldenSweep(t, "crash")
}

func TestGoldenFig5(t *testing.T) {
	goldenSweep(t, "fig5")
}

func TestGoldenTable4(t *testing.T) {
	goldenSweep(t, "table4")
}

func TestGoldenReliability(t *testing.T) {
	if testing.Short() {
		t.Skip("reliability sweep is slow")
	}
	goldenSweep(t, "reliability")
}

// slowSweeps are the registry entries -short skips, as it skips their
// goldens.
var slowSweeps = map[string]bool{"reliability": true, "adaptive": true, "lifetime": true}

// TestSweepsDeterministic runs every registered sweep at workers 1 and
// 8 and requires byte-identical text and artifacts. For fig6b,
// ablations, ecc and retshare, which pin no golden, it is the only
// determinism check.
func TestSweepsDeterministic(t *testing.T) {
	for _, s := range Sweeps {
		t.Run(s.Name, func(t *testing.T) {
			if testing.Short() && slowSweeps[s.Name] {
				t.Skipf("%s sweep is slow", s.Name)
			}
			sameOutputs(t, 8, sweepOutputs(t, 1, s.Name), sweepOutputs(t, 8, s.Name))
		})
	}
}

// TestGoldenReliabilityRoundTrip pins the CSV reader to the writer: the
// golden file must parse back into rows that re-serialize to the same
// bytes.
func TestGoldenReliabilityRoundTrip(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "reliability.csv"))
	if err != nil {
		t.Skipf("no golden file yet: %v", err)
	}
	rows, err := reliabilityCSV.Read(bytes.NewReader(raw), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reliabilityCSV.Write(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Errorf("reliability CSV does not round-trip through reliabilityCSV")
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
