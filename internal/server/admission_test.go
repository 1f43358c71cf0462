package server

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestLatencyRingWindow: the ring holds at most its capacity, and once
// full the percentiles describe the newest observations only — the
// sliding window /metrics reports.
func TestLatencyRingWindow(t *testing.T) {
	r := newLatencyRing(8)
	p50, p95, p99, mean := r.percentiles()
	if p50 != 0 || p95 != 0 || p99 != 0 || mean != 0 {
		t.Fatal("empty ring answers nonzero percentiles")
	}
	// Fill with a slow epoch, then overwrite with a fast one.
	for i := 0; i < 8; i++ {
		r.add(100)
	}
	for i := 0; i < 8; i++ {
		r.add(1)
	}
	p50, p95, p99, mean = r.percentiles()
	if p50 != 1 || p95 != 1 || p99 != 1 || mean != 1 {
		t.Fatalf("ring still remembers the old epoch: p50=%g p95=%g p99=%g mean=%g",
			p50, p95, p99, mean)
	}
	// Partial fill keeps exact values.
	r2 := newLatencyRing(100)
	for i := 1; i <= 10; i++ {
		r2.add(float64(i))
	}
	if _, _, p99, _ := r2.percentiles(); p99 != 9 {
		t.Fatalf("partial ring p99 = %g, want 9 (index floor of 99%% of 9)", p99)
	}
}

// TestConfigDefaults: a zero config resolves every knob, and explicit
// values survive.
func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.QueueDepth != DefaultQueueDepth || c.MaxQueue != DefaultMaxQueue ||
		c.SimGap != DefaultSimGap || c.MetricsEvery != DefaultMetricsEvery {
		t.Fatalf("zero config resolved to %+v", c)
	}
	if c.Burst != 0 {
		t.Fatal("burst set without a rate")
	}
	c = Config{Rate: 100, QueueDepth: 3, SimGap: time.Millisecond}.withDefaults()
	if c.Burst != 100 || c.QueueDepth != 3 || c.SimGap != time.Millisecond {
		t.Fatalf("explicit knobs lost: %+v", c)
	}
	// A sub-1 rate still gets a usable bucket.
	if c := (Config{Rate: 0.5}).withDefaults(); c.Burst != 1 {
		t.Fatalf("fractional rate burst = %g, want 1", c.Burst)
	}
}

// TestServerRejectsBadTenants: invalid and duplicate tenant specs fail
// construction instead of serving a broken namespace.
func TestServerRejectsBadTenants(t *testing.T) {
	bad := testTenants()
	bad[1].Name = bad[0].Name
	if _, err := New(Config{FTL: smallFTL(), Tenants: bad}); err == nil {
		t.Fatal("duplicate tenant names accepted")
	}
	bad = testTenants()
	bad[0].WorkingSet = 0
	if _, err := New(Config{FTL: smallFTL(), Tenants: bad}); err == nil {
		t.Fatal("empty working set accepted")
	}
}

// TestServerRejectsBadBucket: a token bucket that cannot work fails
// construction — a NaN, infinite or negative value would otherwise read
// as "unlimited" or "default", and a burst below one token would shed
// every op with 429 forever. A one-token bucket admits its first op,
// and a burst without a rate is ignored.
func TestServerRejectsBadBucket(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct{ rate, burst float64 }{
		{nan, 0}, {inf, 0}, {-1, 0}, {10, nan}, {10, inf}, {10, -1}, {0, -1},
		{10, 0.5}, {10, 1e-9},
	} {
		if _, err := New(Config{FTL: smallFTL(), Tenants: testTenants(), Rate: c.rate, Burst: c.burst}); err == nil {
			t.Errorf("rate %g burst %g accepted", c.rate, c.burst)
		}
	}
	newTestServer(t, Config{Burst: 0.5})
	_, hs := newTestServer(t, Config{Rate: 10, Burst: 1})
	if code := get(t, hs.Client(), hs.URL+"/v1/read?tenant=alpha&lpn=0", nil); code != 200 {
		t.Fatalf("one-token bucket answered its first op with %d", code)
	}
}

// TestServerRejectsNegativeSettings: a negative count or gap fails
// construction with an error naming the field, instead of silently
// reading as its default; 0 keeps the default.
func TestServerRejectsNegativeSettings(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   Config
	}{
		{"Shards", Config{Shards: -3}},
		{"QueueDepth", Config{QueueDepth: -1}},
		{"MaxQueue", Config{MaxQueue: -1}},
		{"SimGap", Config{SimGap: -time.Microsecond}},
		{"MetricsEvery", Config{MetricsEvery: -1}},
	} {
		c.cfg.FTL, c.cfg.Tenants = smallFTL(), testTenants()
		if _, err := New(c.cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("negative %s: err %v, want one naming the field", c.field, err)
		}
	}
	s, _ := newTestServer(t, Config{})
	if c := s.cfg; len(s.shards) != 1 || c.QueueDepth != DefaultQueueDepth || c.MaxQueue != DefaultMaxQueue ||
		c.SimGap != DefaultSimGap || c.MetricsEvery != DefaultMetricsEvery {
		t.Fatalf("zero settings resolved to %d shards, %+v", len(s.shards), c)
	}
}

// TestServerRejectsWindowPastDevice: a tenant window that runs past the
// device's logical pages fails construction, naming the tenant, instead
// of wrapping its LPNs onto other tenants' pages. Windows that overlap
// each other or end exactly at the device's edge stay legal.
func TestServerRejectsWindowPastDevice(t *testing.T) {
	bad := testTenants()
	bad[1].Base = 1536 // beta: [1536, 2560) on a 2048-page device
	_, err := New(Config{FTL: smallFTL(), Tenants: bad})
	if err == nil || !strings.Contains(err.Error(), "tenant beta") {
		t.Fatalf("window past the device: err %v", err)
	}
	edge := testTenants()
	edge[0].WorkingSet = 2048 // alpha spans the whole device, overlapping beta
	newTestServer(t, Config{Tenants: edge})
}
