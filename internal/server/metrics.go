// Observability: the bounded latency rings behind /metrics and the
// JSON snapshot they produce. Percentiles here describe what clients
// experienced at this server (simulated response time, queue wait
// included) over the last DefaultRingSize admitted ops per shard — a
// sliding window, so a long-running daemon reports current behaviour,
// not its lifetime average. Shed and deadline-exceeded requests never enter a
// ring.
//
// With Shards > 1 every per-shard artifact merges deterministically:
// percentiles are computed over the sorted multiset union of the
// per-shard rings (order-independent, so concurrent engines cannot
// make two snapshots of the same state disagree), device telemetry
// merges through core.MergeMetrics (counters sum, means weight by
// volume, percentile tails take the worst shard — the conservative
// choice for SLO reporting), and aggregate IOPS is the sum of each
// shard's admitted rate over its own simulated clock. With one shard
// every merge returns that shard's own numbers.
package server

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"time"

	"flexlevel/internal/core"
)

// latencyRing is a fixed-capacity ring of latency observations.
type latencyRing struct {
	xs   []float64
	next int
	full bool
}

func newLatencyRing(n int) *latencyRing { return &latencyRing{xs: make([]float64, 0, n)} }

func (r *latencyRing) add(x float64) {
	if r.full {
		r.xs[r.next] = x
		r.next = (r.next + 1) % len(r.xs)
		return
	}
	r.xs = append(r.xs, x)
	if len(r.xs) == cap(r.xs) {
		r.full = true
	}
}

// window returns a copy of the ring's observations, so the caller can
// let go of Server.mu before it sorts them.
func (r *latencyRing) window() []float64 { return slices.Clone(r.xs) }

// percentiles returns p50/p95/p99 and the mean over xs, which it sorts
// in place. Over the union of several rings' windows the result depends
// only on the multiset of observations, never on shard enumeration
// order — the determinism argument for merged metrics.
func percentiles(xs []float64) (p50, p95, p99, mean float64) {
	if len(xs) == 0 {
		return 0, 0, 0, 0
	}
	sort.Float64s(xs)
	at := func(p float64) float64 {
		i := int(p / 100 * float64(len(xs)-1))
		return xs[i]
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return at(50), at(95), at(99), sum / float64(len(xs))
}

// TenantSnapshot is one tenant's slice of /metrics.
type TenantSnapshot struct {
	Name             string  `json:"name"`
	Admitted         int64   `json:"admitted"`
	Reads            int64   `json:"reads"`
	Writes           int64   `json:"writes"`
	Shed             int64   `json:"shed"`
	DeadlineExceeded int64   `json:"deadline_exceeded"`
	QueueFull        int64   `json:"queue_full"`
	ReadOnlyRejects  int64   `json:"read_only_rejects"`
	PowerLossErrors  int64   `json:"power_loss_errors"`
	AckSeq           uint64  `json:"ack_seq"`
	P50              float64 `json:"p50_s"`
	P95              float64 `json:"p95_s"`
	P99              float64 `json:"p99_s"`
	Mean             float64 `json:"mean_s"`
}

// Snapshot is the /metrics document (and the final drain artifact).
type Snapshot struct {
	UptimeSeconds  float64 `json:"uptime_seconds"`
	SimTimeSeconds float64 `json:"sim_time_seconds"`
	Draining       bool    `json:"draining"`
	Degraded       bool    `json:"degraded"`
	Crashed        bool    `json:"crashed"`

	Admitted         int64 `json:"admitted"`
	Reads            int64 `json:"reads"`
	Writes           int64 `json:"writes"`
	Shed             int64 `json:"shed"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	QueueFull        int64 `json:"queue_full"`
	ReadOnlyRejects  int64 `json:"read_only_rejects"`
	PowerLossErrors  int64 `json:"power_loss_errors"`
	InternalErrors   int64 `json:"internal_errors"`

	// IOPS is the aggregate admitted rate: each shard's admitted count
	// over its own simulated makespan, summed — N busy shards sustain
	// N times one engine's rate, which is the modeled capacity the
	// sharded device actually has.
	IOPS float64 `json:"iops"`
	P50  float64 `json:"p50_s"`
	P95  float64 `json:"p95_s"`
	P99  float64 `json:"p99_s"`
	Mean float64 `json:"mean_s"`

	Tenants []TenantSnapshot `json:"tenants"`

	// Device is the runner's full telemetry — cache and calibration
	// activity, wear, crash-recovery counters — refreshed every
	// MetricsEvery ops per shard and after any op that changed the
	// device's state, merged across shards via core.MergeMetrics.
	Device core.Metrics `json:"device"`

	// Shards and the per-shard views appear only on a sharded server
	// (Shards > 1); a one-shard snapshot carries none of these keys.
	Shards              int            `json:"shards,omitempty"`
	ShardSimTimeSeconds []float64      `json:"shard_sim_time_seconds,omitempty"`
	ShardDevices        []core.Metrics `json:"shard_devices,omitempty"`

	SnapshotError string `json:"snapshot_error,omitempty"`
}

func (s Snapshot) marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Snapshot returns the current metrics view (what /metrics serves).
// The outcome totals and each shard's admitted, shed and
// deadline-exceeded counts are sums over the tenant rows; the latter
// two are the only count of those outcomes, written into each shard's
// device metrics before they merge. Server.mu is held only to copy the
// shared state: the ring windows are sorted and the device metrics
// merged after it is released.
func (s *Server) Snapshot() Snapshot {
	s.mu.Lock()
	snap := Snapshot{
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Draining:       s.draining,
		InternalErrors: s.internalErrors,
		SnapshotError:  s.snapshotErr,
	}
	devices := make([]core.Metrics, len(s.shards))
	simTimes := make([]float64, len(s.shards))
	var all []float64
	for k, e := range s.shards {
		snap.Crashed = snap.Crashed || e.crashed
		simTimes[k] = e.simTime.Seconds()
		devices[k] = e.device
		all = append(all, e.ring.xs...)
	}
	snap.Tenants = make([]TenantSnapshot, len(s.tenants))
	windows := make([][]float64, len(s.tenants))
	shardAdmitted := make([]int64, len(s.shards))
	for i, t := range s.tenants {
		ts := TenantSnapshot{
			Name:             t.spec.Name,
			Admitted:         t.admitted,
			Reads:            t.reads,
			Writes:           t.writes,
			Shed:             t.shed,
			DeadlineExceeded: t.deadline,
			QueueFull:        t.queueFull,
			ReadOnlyRejects:  t.readOnly,
			PowerLossErrors:  t.powerLoss,
			AckSeq:           t.ackSeq,
		}
		windows[i] = t.ring.window()
		snap.Tenants[i] = ts
		snap.Admitted += ts.Admitted
		snap.Reads += ts.Reads
		snap.Writes += ts.Writes
		snap.Shed += ts.Shed
		snap.DeadlineExceeded += ts.DeadlineExceeded
		snap.QueueFull += ts.QueueFull
		snap.ReadOnlyRejects += ts.ReadOnlyRejects
		snap.PowerLossErrors += ts.PowerLossErrors
		shardAdmitted[t.shard.id] += ts.Admitted
		devices[t.shard.id].Shed += ts.Shed
		devices[t.shard.id].DeadlineExceeded += ts.DeadlineExceeded
	}
	s.mu.Unlock()

	for i := range snap.Tenants {
		ts := &snap.Tenants[i]
		ts.P50, ts.P95, ts.P99, ts.Mean = percentiles(windows[i])
	}
	for k, sec := range simTimes {
		if sec > 0 {
			snap.IOPS += float64(shardAdmitted[k]) / sec
		}
		snap.SimTimeSeconds = max(snap.SimTimeSeconds, sec)
	}
	snap.Device = core.MergeMetrics(devices)
	snap.Degraded = snap.Device.Degraded
	if n := len(s.shards); n > 1 {
		snap.Shards = n
		snap.ShardSimTimeSeconds = simTimes
		snap.ShardDevices = devices
	}
	snap.P50, snap.P95, snap.P99, snap.Mean = percentiles(all)
	return snap
}

// FinalSnapshot returns the drain-time snapshot, if the drain finished.
func (s *Server) FinalSnapshot() (Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.final == nil {
		return Snapshot{}, false
	}
	return *s.final, true
}

func defaultWriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
