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
// every merge degenerates to the legacy single-engine artifact,
// byte for byte.
package server

import (
	"encoding/json"
	"os"
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

// percentilesOf returns p50/p95/p99 and the mean over the union of the
// given rings' windows. The union is sorted, so the result depends only
// on the multiset of observations, never on shard enumeration order —
// the determinism argument for merged metrics.
func percentilesOf(rings []*latencyRing) (p50, p95, p99, mean float64) {
	n := 0
	for _, r := range rings {
		n += len(r.xs)
	}
	if n == 0 {
		return 0, 0, 0, 0
	}
	tmp := make([]float64, 0, n)
	for _, r := range rings {
		tmp = append(tmp, r.xs...)
	}
	sort.Float64s(tmp)
	at := func(p float64) float64 {
		i := int(p / 100 * float64(len(tmp)-1))
		return tmp[i]
	}
	sum := 0.0
	for _, x := range tmp {
		sum += x
	}
	return at(50), at(95), at(99), sum / float64(len(tmp))
}

// percentiles returns p50/p95/p99 and the mean over one ring's window.
func (r *latencyRing) percentiles() (p50, p95, p99, mean float64) {
	return percentilesOf([]*latencyRing{r})
}

// tenantStats is one tenant's shared counters: the only copy of each
// request outcome count (the snapshot totals are their sums).
type tenantStats struct {
	name      string
	admitted  int64
	reads     int64
	writes    int64
	shed      int64
	deadline  int64
	queueFull int64
	readOnly  int64
	powerLoss int64
	ackSeq    uint64
	ring      *latencyRing
}

// serverStats is every shared observability field, guarded by statMu.
// Per-shard slices are indexed by shard id; each engine writes only
// its own slot (plus its tenants' counters), handlers read them all.
type serverStats struct {
	internalErrors int64 // 500 internal and 503 write_failed, counted once here
	tenants        []*tenantStats

	// Per-shard state: latency rings, sim clocks, cached device
	// telemetry and crash flags.
	rings        []*latencyRing
	shardSimTime []time.Duration
	shardDevice  []core.Metrics
	haveDevice   []bool
	shardCrashed []bool // shard's device is down awaiting restart

	snapshotErr string
	final       *Snapshot
}

func (st *serverStats) init(cfg Config, names []string) {
	st.rings = make([]*latencyRing, cfg.Shards)
	for i := range st.rings {
		st.rings[i] = newLatencyRing(DefaultRingSize)
	}
	st.shardSimTime = make([]time.Duration, cfg.Shards)
	st.shardDevice = make([]core.Metrics, cfg.Shards)
	st.haveDevice = make([]bool, cfg.Shards)
	st.shardCrashed = make([]bool, cfg.Shards)
	st.tenants = make([]*tenantStats, len(names))
	for i, name := range names {
		st.tenants[i] = &tenantStats{name: name, ring: newLatencyRing(DefaultRingSize)}
	}
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
	// MetricsEvery ops per shard, merged across shards via
	// core.MergeMetrics when Shards > 1.
	Device core.Metrics `json:"device"`

	// Shards and the per-shard views appear only on a sharded server
	// (Shards > 1), so the single-engine snapshot stays byte-identical
	// to the legacy artifact.
	Shards              int            `json:"shards,omitempty"`
	ShardSimTimeSeconds []float64      `json:"shard_sim_time_seconds,omitempty"`
	ShardDevices        []core.Metrics `json:"shard_devices,omitempty"`

	SnapshotError string `json:"snapshot_error,omitempty"`
}

func (s Snapshot) marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// snapshotLocked composes the current snapshot. Callers must NOT hold
// statMu; any engine or handler may call it. The outcome totals and
// each shard's admitted count are sums over the tenant rows.
func (s *Server) snapshotLocked() Snapshot {
	draining := s.Draining()
	s.statMu.Lock()
	defer s.statMu.Unlock()
	st := &s.stats
	snap := Snapshot{
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Draining:       draining,
		InternalErrors: st.internalErrors,
		SnapshotError:  st.snapshotErr,
	}
	snap.Tenants = make([]TenantSnapshot, len(st.tenants))
	shardAdmitted := make([]int64, len(st.rings))
	for i, ts := range st.tenants {
		t := TenantSnapshot{
			Name:             ts.name,
			Admitted:         ts.admitted,
			Reads:            ts.reads,
			Writes:           ts.writes,
			Shed:             ts.shed,
			DeadlineExceeded: ts.deadline,
			QueueFull:        ts.queueFull,
			ReadOnlyRejects:  ts.readOnly,
			PowerLossErrors:  ts.powerLoss,
			AckSeq:           ts.ackSeq,
		}
		t.P50, t.P95, t.P99, t.Mean = ts.ring.percentiles()
		snap.Tenants[i] = t
		snap.Admitted += t.Admitted
		snap.Reads += t.Reads
		snap.Writes += t.Writes
		snap.Shed += t.Shed
		snap.DeadlineExceeded += t.DeadlineExceeded
		snap.QueueFull += t.QueueFull
		snap.ReadOnlyRejects += t.ReadOnlyRejects
		snap.PowerLossErrors += t.PowerLossErrors
		shardAdmitted[s.router.tenantOf(i)] += t.Admitted
	}
	for k := range st.shardCrashed {
		if st.shardCrashed[k] {
			snap.Crashed = true
		}
		if st.shardSimTime[k] > 0 {
			snap.IOPS += float64(shardAdmitted[k]) / st.shardSimTime[k].Seconds()
		}
		if sec := st.shardSimTime[k].Seconds(); sec > snap.SimTimeSeconds {
			snap.SimTimeSeconds = sec
		}
	}
	live := make([]core.Metrics, 0, len(st.shardDevice))
	for k, have := range st.haveDevice {
		if have {
			live = append(live, st.shardDevice[k])
		}
	}
	if len(live) > 0 {
		snap.Device = core.MergeMetrics(live)
		snap.Degraded = snap.Device.Degraded
	}
	if n := len(st.rings); n > 1 {
		snap.Shards = n
		snap.ShardSimTimeSeconds = make([]float64, n)
		for k := range st.shardSimTime {
			snap.ShardSimTimeSeconds[k] = st.shardSimTime[k].Seconds()
		}
		snap.ShardDevices = append([]core.Metrics(nil), st.shardDevice...)
	}
	snap.P50, snap.P95, snap.P99, snap.Mean = percentilesOf(st.rings)
	return snap
}

// Snapshot returns the current metrics view (what /metrics serves).
func (s *Server) Snapshot() Snapshot { return s.snapshotLocked() }

// FinalSnapshot returns the drain-time snapshot, if the drain finished.
func (s *Server) FinalSnapshot() (Snapshot, bool) {
	s.statMu.Lock()
	defer s.statMu.Unlock()
	if s.stats.final == nil {
		return Snapshot{}, false
	}
	return *s.stats.final, true
}

func defaultWriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
