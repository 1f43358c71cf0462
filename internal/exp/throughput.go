// The throughput sweep: the paper evaluates FlexLevel on a
// single-channel FIFO device at queue depth 1, but real SSDs overlap
// reads across channels under NCQ-style queue depth. This sweep drives
// the queue-depth replay (core.Runner.Replay at qd >= 1) over an
// 8-channel device at queue depths 1..32 and reports the saturation
// curve — IOPS and p50/p99 read latency per system — behind
// `flexlevel throughput`.
package exp

import (
	"fmt"
	"io"

	"flexlevel/internal/core"
	"flexlevel/internal/runner"
	"flexlevel/internal/trace"
)

// QueueDepths is the swept NCQ window, 1..32 in powers of two.
var QueueDepths = []int{1, 2, 4, 8, 16, 32}

// ThroughputWorkload is the replayed trace: fin-2 (OLTP) is
// read-dominant with strong skew, so the read path — where the four
// systems differ — dominates the curve.
const ThroughputWorkload = "fin-2"

// ThroughputChannels is the channel count of the swept device. The
// calibrated experiments use the paper's single-channel device; the
// saturation study needs parallelism for queue depth to buy anything.
const ThroughputChannels = 8

// ThroughputRow is one (queue depth, system) cell of the sweep.
type ThroughputRow struct {
	QD     int
	System core.System
	IOPS   float64 // requests per simulated second
	core.Metrics
}

// throughputCell is one shard of the sweep.
type throughputCell struct {
	QD     int
	System core.System
}

// addLatencyGauges surfaces a run's read-latency percentiles as engine
// gauges, so the sweep's <name>_summary.json carries worst-cell
// p50/p95/p99 alongside its counters.
func addLatencyGauges(s runner.Shard, m core.Metrics) {
	s.AddGauge("p50_read_s", m.P50Read)
	s.AddGauge("p95_read_s", m.P95Read)
	s.AddGauge("p99_read_s", m.P99Read)
}

// Throughput replays the workload closed-loop (arrivals zeroed: each
// request is submitted the moment a queue slot frees) under every
// system at every queue depth, one engine shard per (qd, system) cell.
// The closed-loop stream is generated once and shared read-only; shards
// share no mutable state, so the sweep is byte-identical for any worker
// count. IOPS is requests over the simulated makespan — the point at
// which the last flash channel went idle.
func Throughput(cfg SimConfig) ([]ThroughputRow, error) {
	var cells []throughputCell
	for _, qd := range QueueDepths {
		for _, sys := range core.Systems() {
			cells = append(cells, throughputCell{QD: qd, System: sys})
		}
	}
	logical := core.DefaultOptions(core.Baseline, cfg.PE).SSD.FTL.LogicalPages
	w, err := trace.ByName(ThroughputWorkload, cfg.Requests, logical, cfg.Seed)
	if err != nil {
		return nil, err
	}
	keys := make([]trace.Workload, len(cells))
	for i := range keys {
		keys[i] = w
	}
	st := newStreams(keys, func(w trace.Workload) ([]trace.Request, error) {
		reqs, err := w.Generate()
		if err != nil {
			return nil, err
		}
		return trace.CloseLoop(reqs), nil
	})
	rows, _, err := runner.Map(cfg.Ctx, cfg.engine("throughput"), cells,
		func(_ int, c throughputCell) string {
			return fmt.Sprintf("qd=%d/system=%v", c.QD, c.System)
		},
		func(s runner.Shard, c throughputCell) (ThroughputRow, error) {
			opts := core.DefaultOptions(c.System, cfg.PE)
			opts.SSD.Channels = ThroughputChannels
			reqs, err := st.get(w)
			defer st.put(w)
			if err != nil {
				return ThroughputRow{}, err
			}
			r, err := core.NewRunner(opts)
			if err != nil {
				return ThroughputRow{}, err
			}
			m, err := r.Replay(cfg.Ctx, w.Name, reqs, w.WorkingSet, c.QD)
			if err != nil {
				return ThroughputRow{}, err
			}
			cfg.record(s, m)
			row := ThroughputRow{QD: c.QD, System: c.System, Metrics: m}
			if m.SimTime > 0 {
				row.IOPS = float64(cfg.Requests) / m.SimTime
			}
			return row, nil
		})
	return rows, err
}

// PrintThroughput renders the saturation curve.
func PrintThroughput(w io.Writer, rows []ThroughputRow) {
	fmt.Fprintf(w, "Throughput vs queue depth — %s workload, %d channels, closed loop\n",
		ThroughputWorkload, ThroughputChannels)
	fmt.Fprintf(w, "  %-4s %-22s %10s %10s %10s %10s %10s\n",
		"qd", "system", "IOPS", "avg read", "p50 read", "p99 read", "makespan")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-4d %-22s %10.0f %8.1fµs %8.1fµs %8.1fµs %9.3fs\n",
			r.QD, r.System, r.IOPS,
			r.AvgRead*1e6, r.P50Read*1e6, r.P99Read*1e6, r.SimTime)
	}
	// Saturation speedup: the deepest queue's IOPS over depth 1, per
	// system.
	base := map[core.System]float64{}
	last := map[core.System]ThroughputRow{}
	for _, r := range rows {
		if r.QD == QueueDepths[0] {
			base[r.System] = r.IOPS
		}
		last[r.System] = r
	}
	for _, sys := range core.Systems() {
		if b := base[sys]; b > 0 {
			fmt.Fprintf(w, "  saturation speedup for %v: %.1fx (qd %d vs %d)\n",
				sys, last[sys].IOPS/b, last[sys].QD, QueueDepths[0])
		}
	}
}
