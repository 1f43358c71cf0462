package exp

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"flexlevel/internal/core"
	"flexlevel/internal/runner"
)

// throughputRows runs the sweep once (goldenSim, 8 workers) and caches
// the rows for every assertion in this file.
var throughputRows = sync.OnceValues(func() ([]ThroughputRow, error) {
	cfg := goldenSim()
	cfg.Parallel = 8
	return Throughput(cfg)
})

// TestThroughputMonotoneIOPS is the acceptance property of the sweep:
// for every system, IOPS must be non-decreasing in queue depth up to
// saturation. A 1% slack absorbs scheduling-shift noise (earlier
// submission times change retention ages, hence sensing levels and GC
// timing, by a hair).
func TestThroughputMonotoneIOPS(t *testing.T) {
	rows, err := throughputRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(QueueDepths)*len(core.Systems()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(QueueDepths)*len(core.Systems()))
	}
	curves := map[core.System][]ThroughputRow{}
	for _, r := range rows {
		curves[r.System] = append(curves[r.System], r)
	}
	for _, sys := range core.Systems() {
		curve := curves[sys]
		if len(curve) != len(QueueDepths) {
			t.Fatalf("%v: %d points, want %d", sys, len(curve), len(QueueDepths))
		}
		for i := 1; i < len(curve); i++ {
			if curve[i].QD <= curve[i-1].QD {
				t.Fatalf("%v: queue depths not ascending: %d after %d", sys, curve[i].QD, curve[i-1].QD)
			}
			if curve[i].IOPS < curve[i-1].IOPS*0.99 {
				t.Errorf("%v: IOPS dropped past slack at qd %d: %.0f -> %.0f",
					sys, curve[i].QD, curve[i-1].IOPS, curve[i].IOPS)
			}
			if curve[i].IOPS <= 0 || curve[i].SimTime <= 0 {
				t.Errorf("%v qd=%d: degenerate row IOPS=%g SimTime=%g",
					sys, curve[i].QD, curve[i].IOPS, curve[i].SimTime)
			}
		}
		// Queue depth must actually buy throughput: the deepest point
		// beats depth 1.
		if last := curve[len(curve)-1]; last.IOPS <= curve[0].IOPS {
			t.Errorf("%v: no speedup from queue depth (qd1 %.0f, qd%d %.0f)",
				sys, curve[0].IOPS, last.QD, last.IOPS)
		}
	}
}

func TestThroughputPercentilesOrdered(t *testing.T) {
	rows, err := throughputRows()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.P50Read <= 0 || r.P50Read > r.P95Read || r.P95Read > r.P99Read {
			t.Errorf("qd=%d %v: percentiles not ordered: p50=%g p95=%g p99=%g",
				r.QD, r.System, r.P50Read, r.P95Read, r.P99Read)
		}
	}
}

// TestGoldenThroughput is the scheduler-determinism property made
// executable: the sweep's CSV must be byte-identical at worker counts
// 1/2/3/8 (the golden harness runs all of them) and match the
// committed golden file.
func TestGoldenThroughput(t *testing.T) {
	goldenSweep(t, "throughput")
}

func TestThroughputSummaryGauges(t *testing.T) {
	cfg := goldenSim()
	cfg.Requests = 400 // smoke-sized: only the summary shape matters
	cfg.Parallel = 4
	var sum *runner.Summary
	cfg.OnSummary = func(s *runner.Summary) { sum = s }
	if _, err := Throughput(cfg); err != nil {
		t.Fatal(err)
	}
	if sum == nil {
		t.Fatal("no summary emitted")
	}
	if sum.Name != "throughput" {
		t.Errorf("summary name %q, want throughput", sum.Name)
	}
	for _, g := range []string{"p50_read_s", "p95_read_s", "p99_read_s"} {
		if v, ok := sum.Gauges[g]; !ok || v <= 0 {
			t.Errorf("summary gauge %s = %g (present=%v), want positive", g, v, ok)
		}
	}
	var buf bytes.Buffer
	if err := sum.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"gauges"`) {
		t.Error("summary JSON lacks gauges block")
	}
}
