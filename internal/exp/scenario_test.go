package exp

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"flexlevel/internal/core"
	"flexlevel/internal/runner"
	"flexlevel/internal/trace"
)

// scenarioRows runs the matrix once (goldenSim, 8 workers) and caches
// the rows for every assertion in this file.
var scenarioRows = sync.OnceValues(func() ([]ScenarioRow, error) {
	cfg := goldenSim()
	cfg.Parallel = 8
	return Scenario(cfg, nil)
})

func scenarioCells() int {
	return len(ScenarioShapes) * len(ScenarioFaultScales) * len(ScenarioQueueDepths) * len(core.Systems())
}

func TestScenarioGridShape(t *testing.T) {
	rows, err := scenarioRows()
	if err != nil {
		t.Fatal(err)
	}
	tenants := trace.DefaultTenants(16)
	wantRows := scenarioCells() * (1 + len(tenants))
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d (%d cells × %d rows each)",
			len(rows), wantRows, scenarioCells(), 1+len(tenants))
	}
	// Every cell must carry an "all" row plus every tenant, each
	// attributing a positive request share that sums to the budget.
	byCell := map[scenarioCell]map[string]ScenarioRow{}
	for _, r := range rows {
		c := scenarioCell{Shape: r.Shape, Scale: r.Scale, QD: r.QD, System: r.System}
		if byCell[c] == nil {
			byCell[c] = map[string]ScenarioRow{}
		}
		byCell[c][r.Tenant] = r
	}
	if len(byCell) != scenarioCells() {
		t.Fatalf("got %d cells, want %d", len(byCell), scenarioCells())
	}
	for c, cell := range byCell {
		all, ok := cell[ScenarioAllTenant]
		if !ok {
			t.Fatalf("cell %+v lacks the all row", c)
		}
		var sum int64
		for _, ten := range tenants {
			r, ok := cell[ten.Name]
			if !ok {
				t.Fatalf("cell %+v lacks tenant %s", c, ten.Name)
			}
			if r.Requests <= 0 || r.IOPS <= 0 {
				t.Errorf("cell %+v tenant %s: degenerate row %+v", c, ten.Name, r)
			}
			if r.P50Read <= 0 || r.P50Read > r.P95Read || r.P95Read > r.P99Read {
				t.Errorf("cell %+v tenant %s: percentiles not ordered: %g/%g/%g",
					c, ten.Name, r.P50Read, r.P95Read, r.P99Read)
			}
			sum += r.Requests
		}
		if sum != all.Requests {
			t.Errorf("cell %+v: tenant requests sum to %d, all row has %d", c, sum, all.Requests)
		}
	}
}

// TestScenarioFaultsBite checks the fault axis is live: the 1x half of
// the grid must retire blocks somewhere, the 0x half nowhere.
func TestScenarioFaultsBite(t *testing.T) {
	rows, err := scenarioRows()
	if err != nil {
		t.Fatal(err)
	}
	var retired1x int64
	for _, r := range rows {
		if r.Scale == 0 && r.RetiredBlocks != 0 {
			t.Errorf("fault-free cell retired %d blocks: %+v", r.RetiredBlocks, r)
		}
		if r.Scale == 1 {
			retired1x += r.RetiredBlocks
		}
	}
	if retired1x == 0 {
		t.Error("1x fault cells retired no blocks anywhere — injection not wired")
	}
}

// TestGoldenScenario is the determinism contract of the matrix made
// executable: serial and parallel runs at workers 1/2/3/8 must emit a
// byte-identical CSV, pinned against the committed golden.
func TestGoldenScenario(t *testing.T) {
	goldenSweep(t, "scenario")
}

// TestScenarioCustomTenants runs the matrix over a parsed tenant spec —
// the `flexlevel scenario -tenants` path end to end.
func TestScenarioCustomTenants(t *testing.T) {
	spec := "tenant,weight,model,read_ratio,zipf_s,base,working_set,mean_pages,seq_prob,duty,period_us,amplitude\n" +
		"solo,1,steady,0.9,1.3,0,4096,1.5,0.1,0,0,0\n"
	tenants, err := trace.ReadScenarioSpec(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenSim()
	cfg.Requests = 400 // smoke-sized: only the wiring matters
	rows, err := Scenario(cfg, tenants)
	if err != nil {
		t.Fatal(err)
	}
	want := scenarioCells() * 2 // all + one tenant
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Tenant != ScenarioAllTenant && r.Tenant != "solo" {
			t.Fatalf("unexpected tenant %q in row %+v", r.Tenant, r)
		}
	}
}

// TestScenarioRejectsWindowPastDevice: a spec sized for a larger device
// (tracegen's old 65536-page default) fails before any cell runs, naming
// the tenant whose window runs past the device.
func TestScenarioRejectsWindowPastDevice(t *testing.T) {
	cfg := goldenSim()
	cfg.Requests = 400
	_, err := Scenario(cfg, trace.SampleTenants(5, 65536))
	if err == nil || !strings.Contains(err.Error(), "tenant web") {
		t.Fatalf("window past the device: err %v", err)
	}
}

func TestScenarioSummaryGauges(t *testing.T) {
	cfg := goldenSim()
	cfg.Requests = 400 // smoke-sized: only the summary shape matters
	cfg.Parallel = 4
	var sum *runner.Summary
	cfg.OnSummary = func(s *runner.Summary) { sum = s }
	if _, err := Scenario(cfg, nil); err != nil {
		t.Fatal(err)
	}
	if sum == nil {
		t.Fatal("no summary emitted")
	}
	if sum.Name != "scenario" {
		t.Errorf("summary name %q, want scenario", sum.Name)
	}
	gauges := []string{"p50_read_s", "p95_read_s", "p99_read_s"}
	for _, ten := range trace.DefaultTenants(16) {
		gauges = append(gauges, "tenant_"+ten.Name+"_p99_read_s")
	}
	for _, g := range gauges {
		if v, ok := sum.Gauges[g]; !ok || v <= 0 {
			t.Errorf("summary gauge %s = %g (present=%v), want positive", g, v, ok)
		}
	}
	var buf bytes.Buffer
	if err := sum.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tenant_oltp_p99_read_s") {
		t.Error("summary JSON lacks per-tenant p99 gauges")
	}
}
