package core

import (
	"reflect"
	"testing"
	"time"

	"flexlevel/internal/trace"
)

func tenantTestStream(t *testing.T) ([]trace.Request, []trace.TenantSpec) {
	t.Helper()
	tenants := []trace.TenantSpec{
		{
			Name: "oltp", Weight: 3, Model: trace.BurstModel,
			ReadRatio: 0.8, ZipfS: 1.3, Base: 0, WorkingSet: 2048,
			MeanPages: 1.2, SeqProb: 0.05,
			Duty: 0.25, Period: 20 * time.Millisecond,
		},
		{
			Name: "batch", Weight: 1, Model: trace.SteadyModel,
			ReadRatio: 0.4, ZipfS: 1.1, Base: 2048, WorkingSet: 2048,
			MeanPages: 2, SeqProb: 0.3,
		},
	}
	reqs, err := trace.Interleave(trace.InterleaveSpec{
		Tenants:     tenants,
		Requests:    2000,
		Interarrive: 500 * time.Microsecond,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs, tenants
}

func TestTrackTenantsAttribution(t *testing.T) {
	reqs, tenants := tenantTestStream(t)
	run := func() Metrics {
		r, err := NewRunner(DefaultOptions(FlexLevel, 6000))
		if err != nil {
			t.Fatal(err)
		}
		r.TrackTenants(trace.TenantNames(tenants))
		m, err := r.Replay(nil, "tenants", reqs, 4096, 4)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := run()
	if len(m.Tenants) != len(tenants) {
		t.Fatalf("got %d tenant rows, want %d", len(m.Tenants), len(tenants))
	}
	// Counts must attribute every request of the stream, split exactly
	// as the stream's tenant indexes say.
	wantReq := make([]int64, len(tenants))
	wantReads := make([]int64, len(tenants))
	for _, req := range reqs {
		wantReq[req.Tenant]++
		if req.Op == trace.Read {
			wantReads[req.Tenant]++
		}
	}
	for i, tm := range m.Tenants {
		if tm.Name != tenants[i].Name {
			t.Errorf("tenant %d named %q, want %q", i, tm.Name, tenants[i].Name)
		}
		if tm.Requests != wantReq[i] {
			t.Errorf("%s: %d requests attributed, want %d", tm.Name, tm.Requests, wantReq[i])
		}
		if tm.Reads != wantReads[i] || tm.Writes != wantReq[i]-wantReads[i] {
			t.Errorf("%s: reads/writes %d/%d, want %d/%d",
				tm.Name, tm.Reads, tm.Writes, wantReads[i], wantReq[i]-wantReads[i])
		}
		if tm.AvgRead <= 0 || tm.P50Read <= 0 || tm.P99Read < tm.P50Read {
			t.Errorf("%s: implausible latencies %+v", tm.Name, tm)
		}
		if tm.P95Read > tm.P99Read {
			t.Errorf("%s: p95 %.3g above p99 %.3g", tm.Name, tm.P95Read, tm.P99Read)
		}
	}
	if m2 := run(); !reflect.DeepEqual(m.Tenants, m2.Tenants) {
		t.Error("tenant attribution nondeterministic")
	}
}

func TestTrackTenantsDisabledByDefault(t *testing.T) {
	reqs, _ := tenantTestStream(t)
	r, err := NewRunner(DefaultOptions(Baseline, 6000))
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Replay(nil, "plain", reqs, 4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tenants != nil {
		t.Fatalf("untracked run carries tenant rows: %+v", m.Tenants)
	}
	// Out-of-range tenant indexes must be ignored, not panic.
	r2, err := NewRunner(DefaultOptions(Baseline, 6000))
	if err != nil {
		t.Fatal(err)
	}
	r2.TrackTenants([]string{"only"})
	stray := []trace.Request{
		{Op: trace.Read, LPN: 1, Pages: 1, Tenant: 0},
		{Op: trace.Read, LPN: 2, Pages: 1, Tenant: 5},
		{Op: trace.Write, LPN: 3, Pages: 1, Tenant: -1},
	}
	m2, err := r2.Replay(nil, "stray", stray, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Tenants) != 1 || m2.Tenants[0].Requests != 1 {
		t.Fatalf("stray tenant indexes mis-attributed: %+v", m2.Tenants)
	}
}
