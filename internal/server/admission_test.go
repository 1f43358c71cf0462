package server

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"flexlevel/internal/core"
)

// TestLatencyRingWindow: the ring holds at most its capacity, and once
// full the percentiles describe the newest observations only — the
// sliding window /metrics reports.
func TestLatencyRingWindow(t *testing.T) {
	r := newLatencyRing(8)
	p50, p95, p99, mean := percentiles(r.window())
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
	p50, p95, p99, mean = percentiles(r.window())
	if p50 != 1 || p95 != 1 || p99 != 1 || mean != 1 {
		t.Fatalf("ring still remembers the old epoch: p50=%g p95=%g p99=%g mean=%g",
			p50, p95, p99, mean)
	}
	// Partial fill keeps exact values.
	r2 := newLatencyRing(100)
	for i := 1; i <= 10; i++ {
		r2.add(float64(i))
	}
	if _, _, p99, _ := percentiles(r2.window()); p99 != 9 {
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

// rejectMix drives one tenant into both rejection classes: a first read
// builds a backlog at queue depth 1, three reads with a 1µs deadline
// are cancelled behind it, and a flood of reads is shed once the
// projected wait passes the server's SLO. It returns the latencies of
// the ops the server admitted, in seconds, as the ring records them,
// and fails unless both classes fired.
func rejectMix(t *testing.T, url, tenant string, c *http.Client) (admitted []float64) {
	t.Helper()
	codes := map[int]int{}
	for i := 0; i < 100; i++ {
		q := fmt.Sprintf("%s/v1/read?tenant=%s&lpn=%d", url, tenant, i)
		if i >= 1 && i <= 3 {
			q += "&deadline_us=1"
		}
		var rr ReadResponse
		code := get(t, c, q, &rr)
		codes[code]++
		if code == 200 {
			d := time.Duration(math.Round(rr.LatencyUS * float64(time.Microsecond)))
			admitted = append(admitted, d.Seconds())
		}
	}
	if codes[429] == 0 || codes[504] != 3 {
		t.Fatalf("tenant %s: statuses %v, want sheds (429) and three deadline cancellations (504)", tenant, codes)
	}
	return admitted
}

// rejectingServer is a two-shard server whose tenants reject with
// either class on demand (see rejectMix), and whose device telemetry
// refreshes far less often than the tests send ops.
func rejectingServer(t *testing.T) (*Server, string, *http.Client) {
	s, hs := newTestServer(t, Config{
		System: core.Baseline, PE: 4000, Seed: 3, Shards: 2,
		QueueDepth:   1,
		SimGap:       time.Microsecond,
		SLOWait:      2 * time.Millisecond,
		MetricsEvery: 1 << 20,
	})
	return s, hs.URL, hs.Client()
}

// TestShedDoesNotMovePercentiles: shed and deadline-exceeded requests
// land in their own counters and never in a latency ring, so every
// percentile a snapshot reports, per tenant and merged, is exactly the
// percentile of the latencies the admitted ops saw.
func TestShedDoesNotMovePercentiles(t *testing.T) {
	s, url, c := rejectingServer(t)
	var all []float64
	seen := map[string][]float64{}
	for _, name := range []string{"alpha", "beta"} {
		seen[name] = rejectMix(t, url, name, c)
		all = append(all, seen[name]...)
	}
	snap := s.Snapshot()
	for _, ts := range snap.Tenants {
		lat := seen[ts.Name]
		if ts.Admitted != int64(len(lat)) || ts.Shed == 0 || ts.DeadlineExceeded != 3 {
			t.Fatalf("tenant %s: admitted %d (clients saw %d), shed %d, deadline %d", ts.Name, ts.Admitted, len(lat), ts.Shed, ts.DeadlineExceeded)
		}
		p50, p95, p99, mean := percentiles(lat)
		if ts.P50 != p50 || ts.P95 != p95 || ts.P99 != p99 || ts.Mean != mean {
			t.Fatalf("tenant %s: snapshot p50/p95/p99/mean %g/%g/%g/%g, admitted ops %g/%g/%g/%g",
				ts.Name, ts.P50, ts.P95, ts.P99, ts.Mean, p50, p95, p99, mean)
		}
	}
	p50, p95, p99, mean := percentiles(all)
	if snap.P50 != p50 || snap.P95 != p95 || snap.P99 != p99 || snap.Mean != mean {
		t.Fatalf("merged p50/p95/p99/mean %g/%g/%g/%g, admitted ops %g/%g/%g/%g",
			snap.P50, snap.P95, snap.P99, snap.Mean, p50, p95, p99, mean)
	}
}

// TestSnapshotDeviceShedCurrent: the tenant counters are the one count
// of shed and deadline-exceeded ops, and a snapshot's device metrics,
// merged and per shard, carry them as of the snapshot, not as of the
// shard's last telemetry refresh.
func TestSnapshotDeviceShedCurrent(t *testing.T) {
	s, url, c := rejectingServer(t)
	rejectMix(t, url, "alpha", c)
	rejectMix(t, url, "beta", c)
	snap := s.Snapshot()
	if snap.Device.Shed != snap.Shed || snap.Device.DeadlineExceeded != snap.DeadlineExceeded {
		t.Fatalf("device metrics count %d shed / %d deadline-exceeded, tenants %d / %d",
			snap.Device.Shed, snap.Device.DeadlineExceeded, snap.Shed, snap.DeadlineExceeded)
	}
	if len(snap.ShardDevices) != 2 {
		t.Fatalf("%d shard views, want 2", len(snap.ShardDevices))
	}
	// alpha's window starts shard 0's half of the device, beta's shard 1's.
	for k, ts := range snap.Tenants {
		if d := snap.ShardDevices[k]; d.Shed != ts.Shed || d.DeadlineExceeded != ts.DeadlineExceeded {
			t.Errorf("shard %d device counts %d / %d, its tenant %s %d / %d",
				k, d.Shed, d.DeadlineExceeded, ts.Name, ts.Shed, ts.DeadlineExceeded)
		}
	}
}
