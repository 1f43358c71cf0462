// Per-tenant attribution for interleaved multi-tenant replays. The
// device meters pages and channels and knows nothing about requests or
// their originating streams; request-level latency is only observable
// here, where the replay engine computes each request's completion.
// Tracking is opt-in via TrackTenants so single-tenant paths — and all
// golden-pinned artifacts that predate it — are untouched.
package core

import (
	"time"

	"flexlevel/internal/stats"
	"flexlevel/internal/trace"
)

// TenantMetrics is one tenant's slice of a replay's outcome. Latencies
// are request-level (submission to last-page completion), in seconds,
// over read requests — the metric the paper's response-time figures
// report.
type TenantMetrics struct {
	Name     string
	Requests int64
	Reads    int64
	Writes   int64
	AvgRead  float64
	P50Read  float64
	P95Read  float64
	P99Read  float64
}

// tenantTrack accumulates one tenant's request latencies during replay.
type tenantTrack struct {
	name     string
	requests int64
	writes   int64
	reads    *stats.Sample
}

// TrackTenants enables per-tenant attribution for the next replay.
// names lists the tenant names in stream index order (the order
// trace.Interleave assigns Request.Tenant); requests with out-of-range
// tenant indexes are counted against no tenant. Pass nil to disable.
func (r *Runner) TrackTenants(names []string) {
	if len(names) == 0 {
		r.tenants = nil
		return
	}
	r.tenants = make([]*tenantTrack, len(names))
	for i, name := range names {
		r.tenants[i] = &tenantTrack{name: name, reads: stats.NewSample(1024)}
	}
}

// observeTenant records one completed request against its tenant.
func (r *Runner) observeTenant(req trace.Request, at, done time.Duration) {
	if req.Tenant < 0 || req.Tenant >= len(r.tenants) {
		return
	}
	t := r.tenants[req.Tenant]
	t.requests++
	if req.Op == trace.Read {
		t.reads.Add((done - at).Seconds())
	} else {
		t.writes++
	}
}

// tenantMetrics snapshots the per-tenant accumulators.
func (r *Runner) tenantMetrics() []TenantMetrics {
	if len(r.tenants) == 0 {
		return nil
	}
	out := make([]TenantMetrics, len(r.tenants))
	for i, t := range r.tenants {
		q := t.reads.Percentiles(50, 95, 99)
		out[i] = TenantMetrics{
			Name:     t.name,
			Requests: t.requests,
			Reads:    int64(t.reads.N()),
			Writes:   t.writes,
			AvgRead:  t.reads.Mean(),
			P50Read:  q[0],
			P95Read:  q[1],
			P99Read:  q[2],
		}
	}
	return out
}
