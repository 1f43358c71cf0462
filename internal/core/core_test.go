package core

import (
	"math"
	"testing"

	"flexlevel/internal/accesseval"
	"flexlevel/internal/ftl"
	"flexlevel/internal/ssd"
	"flexlevel/internal/trace"
)

// fastOptions shrinks the simulated device so core tests run quickly.
func fastOptions(sys System, pe int) Options {
	opts := DefaultOptions(sys, pe)
	opts.SSD.FTL = ftl.Config{
		LogicalPages:  4096,
		PagesPerBlock: 64,
		Blocks:        88, // ~37% raw OP
		ReducedFactor: 0.75,
		GCThreshold:   3,
		GCTarget:      4,
	}
	opts.AccessEval = accesseval.DefaultParams(4096)
	return opts
}

func fastWorkload(name string, t *testing.T) trace.Workload {
	t.Helper()
	w, err := trace.ByName(name, 6000, 4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// replayWorkload generates w and replays it open-loop on r.
func replayWorkload(r *Runner, w trace.Workload) (Metrics, error) {
	reqs, err := w.Generate()
	if err != nil {
		return Metrics{}, err
	}
	return r.Replay(nil, w.Name, reqs, w.WorkingSet, 0)
}

func TestSystemsEnumeration(t *testing.T) {
	ss := Systems()
	if len(ss) != 4 {
		t.Fatalf("%d systems, want 4", len(ss))
	}
	names := map[string]bool{}
	for _, s := range ss {
		names[s.String()] = true
	}
	for _, want := range []string{"baseline", "ldpc-in-ssd", "leveladjust-only", "leveladjust+accesseval"} {
		if !names[want] {
			t.Errorf("missing system %s", want)
		}
	}
	if System(99).String() == "" {
		t.Error("unknown system should still print")
	}
}

func TestNewRunnerValidation(t *testing.T) {
	if _, err := NewRunner(Options{System: System(42), PE: 6000, SSD: ssd.DefaultConfig()}); err == nil {
		t.Error("unknown system accepted")
	}
	opts := fastOptions(Baseline, 6000)
	opts.PE = -1
	if _, err := NewRunner(opts); err == nil {
		t.Error("negative P/E accepted")
	}
	// The reduced pool takes Table 3 configurations only, even though
	// nunma.Model also builds the baseline and basic cells.
	for _, name := range []string{"NUNMA 9", "baseline", "basic"} {
		opts = fastOptions(Baseline, 6000)
		opts.NUNMAConfig = name
		if _, err := NewRunner(opts); err == nil {
			t.Errorf("NUNMA config %q accepted", name)
		}
	}
}

func TestRunProducesMetrics(t *testing.T) {
	r, err := NewRunner(fastOptions(LDPCInSSD, 6000))
	if err != nil {
		t.Fatal(err)
	}
	m, err := replayWorkload(r, fastWorkload("fin-2", t))
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgResponse <= 0 {
		t.Error("zero average response")
	}
	if m.UserWrites == 0 {
		t.Error("no user writes recorded")
	}
	if m.Workload != "fin-2" || m.System != LDPCInSSD {
		t.Errorf("labels wrong: %+v", m)
	}
	if m.Migrations != 0 {
		t.Error("non-FlexLevel system migrated")
	}
}

func TestFlexLevelBeatsLDPCInSSDOnReadHeavy(t *testing.T) {
	// The headline claim on the most favourable workload class.
	w := fastWorkload("web-1", t)
	run := func(sys System) Metrics {
		r, err := NewRunner(fastOptions(sys, 6000))
		if err != nil {
			t.Fatal(err)
		}
		m, err := replayWorkload(r, w)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ldpc := run(LDPCInSSD)
	flex := run(FlexLevel)
	if flex.AvgResponse >= ldpc.AvgResponse {
		t.Errorf("FlexLevel %.0fµs not below LDPC-in-SSD %.0fµs on web-1",
			flex.AvgResponse*1e6, ldpc.AvgResponse*1e6)
	}
	if flex.Migrations == 0 {
		t.Error("FlexLevel never migrated on a skewed read-heavy workload")
	}
	// Capacity loss bounded by the pool: at most 25% of logical * 25%
	// density = 6.25%, the paper's "6%".
	if flex.CapacityLoss > 0.0626 {
		t.Errorf("capacity loss %.3f exceeds the pool bound", flex.CapacityLoss)
	}
}

func TestBaselineSlowest(t *testing.T) {
	w := fastWorkload("web-2", t)
	var responses []float64
	for _, sys := range []System{Baseline, LDPCInSSD, FlexLevel} {
		r, err := NewRunner(fastOptions(sys, 6000))
		if err != nil {
			t.Fatal(err)
		}
		m, err := replayWorkload(r, w)
		if err != nil {
			t.Fatal(err)
		}
		responses = append(responses, m.AvgResponse)
	}
	if !(responses[0] > responses[1] && responses[1] > responses[2]) {
		t.Errorf("ordering violated: baseline %.0fµs, ldpc %.0fµs, flexlevel %.0fµs",
			responses[0]*1e6, responses[1]*1e6, responses[2]*1e6)
	}
}

func TestLevelAdjustOnlyFullCapacityLoss(t *testing.T) {
	r, err := NewRunner(fastOptions(LevelAdjustOnly, 6000))
	if err != nil {
		t.Fatal(err)
	}
	m, err := replayWorkload(r, fastWorkload("fin-2", t))
	if err != nil {
		t.Fatal(err)
	}
	// Every stored page reduced: capacity loss = 25% of the stored
	// fraction of the logical space (fin-2 working set is a quarter).
	if m.CapacityLoss <= 0.05 {
		t.Errorf("LevelAdjust-only capacity loss %.3f suspiciously low", m.CapacityLoss)
	}
	// All reads at hard decision.
	for l := 1; l < len(m.LevelHist); l++ {
		if m.LevelHist[l] != 0 {
			t.Errorf("LevelAdjust-only paid %d reads at level %d", m.LevelHist[l], l)
		}
	}
}

func TestFlexLevelWritesMoreThanLDPCInSSD(t *testing.T) {
	// Fig. 7(a): migrations add writes.
	w := fastWorkload("web-1", t)
	runPrograms := func(sys System) int64 {
		r, err := NewRunner(fastOptions(sys, 6000))
		if err != nil {
			t.Fatal(err)
		}
		m, err := replayWorkload(r, w)
		if err != nil {
			t.Fatal(err)
		}
		return m.TotalPrograms
	}
	if flex, ldpc := runPrograms(FlexLevel), runPrograms(LDPCInSSD); flex <= ldpc {
		t.Errorf("FlexLevel programs %d not above LDPC-in-SSD %d", flex, ldpc)
	}
}

func TestPerformanceGainGrowsWithPE(t *testing.T) {
	// Fig. 6(b): the reduction vs LDPC-in-SSD grows with P/E.
	w := fastWorkload("web-1", t)
	norm := func(pe int) float64 {
		var ldpc, flex float64
		for _, sys := range []System{LDPCInSSD, FlexLevel} {
			r, err := NewRunner(fastOptions(sys, pe))
			if err != nil {
				t.Fatal(err)
			}
			m, err := replayWorkload(r, w)
			if err != nil {
				t.Fatal(err)
			}
			if sys == LDPCInSSD {
				ldpc = m.AvgResponse
			} else {
				flex = m.AvgResponse
			}
		}
		return flex / ldpc
	}
	low, high := norm(4000), norm(6000)
	if high >= low {
		t.Errorf("normalized response at P/E 6000 (%.2f) should be below P/E 4000 (%.2f)", high, low)
	}
}

func TestRelativeLifetime(t *testing.T) {
	// Identical WA: no lifetime change.
	if l := RelativeLifetime(1.2, 1.2, 4000, 6000); math.Abs(l-1) > 1e-12 {
		t.Errorf("equal WA lifetime = %g, want 1", l)
	}
	// 13% more WA active only over the last third: modest loss.
	l := RelativeLifetime(1.2, 1.2*1.13, 4000, 6000)
	if l >= 1 || l < 0.9 {
		t.Errorf("lifetime = %g, want slightly below 1", l)
	}
	// Always-on penalty is worse than late activation.
	if always := RelativeLifetime(1.2, 1.2*1.13, 0, 6000); always >= l {
		t.Errorf("always-on lifetime %g should be below late-activation %g", always, l)
	}
	// Degenerate inputs.
	if RelativeLifetime(0, 1, 0, 6000) != 0 {
		t.Error("zero refWA should return 0")
	}
	if RelativeLifetime(1, 1, 9000, 6000) != 1 {
		t.Error("activation beyond endurance should clamp")
	}
}

func TestRunnerDeterministic(t *testing.T) {
	w := fastWorkload("win-1", t)
	run := func() Metrics {
		r, err := NewRunner(fastOptions(FlexLevel, 5000))
		if err != nil {
			t.Fatal(err)
		}
		m, err := replayWorkload(r, w)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.AvgResponse != b.AvgResponse || a.TotalPrograms != b.TotalPrograms || a.Migrations != b.Migrations {
		t.Errorf("non-deterministic runs: %+v vs %+v", a, b)
	}
}
