// The scenario matrix: workload shape × fault rate × queue depth ×
// system. The paper's sweeps replay one steady Poisson stream at a
// time; a deployed device sees several tenants at once — bursty OLTP
// against diurnal web traffic against batch drains, with clashing
// working sets — while blocks fail and the host holds a queue-depth
// window. Scenario crosses those axes in one deterministic grid (the
// multi-tenant stream is derived from the master seed, fault injectors
// from shard seeds) and attributes latency per tenant, the view behind
// `flexlevel scenario`.
package exp

import (
	"fmt"
	"io"
	"slices"
	"time"

	"flexlevel/internal/core"
	"flexlevel/internal/runner"
	"flexlevel/internal/trace"
)

// ScenarioClosedShape is the closed-loop shape name: steady generation
// with arrivals zeroed, so the host submits a request the moment a
// queue slot frees (capacity view, like the throughput sweep).
const ScenarioClosedShape = "closed"

// ScenarioShapes is the swept load-shape axis. The open-loop shapes
// reshape every tenant's arrival process; closed zeroes arrivals.
var ScenarioShapes = []string{trace.SteadyModel, trace.BurstModel, trace.DiurnalModel, ScenarioClosedShape}

// ScenarioFaultScales is the swept fault-rate axis: the fault-free
// device and the reliability sweep's 1x wear-correlated curves.
var ScenarioFaultScales = []float64{0, 1}

// ScenarioQueueDepths is the swept NCQ window.
var ScenarioQueueDepths = []int{1, 4, 8}

// ScenarioChannels is the channel count of the swept device (as in the
// throughput sweep: queue depth buys nothing without parallelism).
const ScenarioChannels = 8

// ScenarioInterarrive is the merged mean interarrival gap of the
// multi-tenant stream; each tenant arrives at its weight's share.
const ScenarioInterarrive = 500 * time.Microsecond

// ScenarioAllTenant labels the whole-device row of each cell.
const ScenarioAllTenant = "all"

// shapeTenants returns the tenant set with every arrival model forced
// to the cell's shape (closed generates steady, then zeroes arrivals).
// Shape parameters a tenant spec left zero get scenario defaults.
func shapeTenants(shape string, tenants []trace.TenantSpec) ([]trace.TenantSpec, error) {
	out := make([]trace.TenantSpec, len(tenants))
	copy(out, tenants)
	for i := range out {
		switch shape {
		case trace.SteadyModel, ScenarioClosedShape:
			out[i].Model = trace.SteadyModel
		case trace.BurstModel:
			out[i].Model = trace.BurstModel
			if !(out[i].Duty > 0 && out[i].Duty < 1) {
				out[i].Duty = 0.25
			}
			if out[i].Period <= 0 {
				out[i].Period = 250 * time.Millisecond
			}
		case trace.DiurnalModel:
			out[i].Model = trace.DiurnalModel
			if !(out[i].Amplitude >= 0 && out[i].Amplitude < 1) || out[i].Amplitude == 0 {
				out[i].Amplitude = 0.8
			}
			if out[i].Period <= 0 {
				out[i].Period = 500 * time.Millisecond
			}
		default:
			return nil, fmt.Errorf("exp: unknown scenario shape %q", shape)
		}
	}
	return out, nil
}

// ScenarioRow is one (shape, fault scale, qd, system, tenant) row of
// the matrix. The "all" row of a cell reports the device's read-path
// percentiles (page level, the metric every other sweep reports);
// tenant rows report request-level completion latency — submission to
// last page done — which under queueing exceeds the page view.
type ScenarioRow struct {
	Shape  string
	Scale  float64
	QD     int
	System core.System
	Tenant string

	Requests int64
	IOPS     float64 // tenant requests per simulated second
	AvgRead  float64
	P50Read  float64
	P95Read  float64
	P99Read  float64

	SimTime       float64
	Unreadable    int64
	RetiredBlocks int64
	DataLoss      int64
}

// scenarioCell is one (shape, scale, qd, system) shard of the matrix.
type scenarioCell struct {
	Shape  string
	Scale  float64
	QD     int
	System core.System
}

// Scenario runs the workload-shape × fault-rate × queue-depth × system
// grid over the tenant mix (nil = trace.DefaultTenants), one
// engine shard per cell. The interleaved stream of a (shape) point is
// derived from the master seed — not the shard seed — so every system
// and queue depth replays the identical trace, generated once and
// shared read-only, and cells differ only in what the paper's axes
// change; fault injectors draw from shard seeds,
// as in the reliability sweep. Each cell yields an "all" row plus one
// row per tenant.
func Scenario(cfg SimConfig, tenants []trace.TenantSpec) ([]ScenarioRow, error) {
	logical := core.DefaultOptions(core.Baseline, cfg.PE).SSD.FTL.LogicalPages
	if tenants == nil {
		tenants = trace.DefaultTenants(logical)
	}
	if err := trace.CheckWindows(tenants, logical); err != nil {
		return nil, fmt.Errorf("exp: scenario: %w", err)
	}
	var cells []scenarioCell
	for _, shape := range ScenarioShapes {
		for _, scale := range ScenarioFaultScales {
			for _, qd := range ScenarioQueueDepths {
				for _, sys := range core.Systems() {
					cells = append(cells, scenarioCell{Shape: shape, Scale: scale, QD: qd, System: sys})
				}
			}
		}
	}
	shapes := make([]string, len(cells))
	for i, c := range cells {
		shapes[i] = c.Shape
	}
	st := newStreams(shapes, func(shape string) ([]trace.Request, error) {
		shaped, err := shapeTenants(shape, tenants)
		if err != nil {
			return nil, err
		}
		reqs, err := trace.Interleave(trace.InterleaveSpec{
			Tenants:     shaped,
			Requests:    cfg.Requests,
			Interarrive: ScenarioInterarrive,
			Seed:        cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		if shape == ScenarioClosedShape {
			reqs = trace.CloseLoop(reqs)
		}
		return reqs, nil
	})
	groups, _, err := runner.Map(cfg.Ctx, cfg.engine("scenario"), cells,
		func(_ int, c scenarioCell) string {
			return fmt.Sprintf("shape=%s/faults=%g/qd=%d/system=%v", c.Shape, c.Scale, c.QD, c.System)
		},
		func(s runner.Shard, c scenarioCell) ([]ScenarioRow, error) {
			reqs, err := st.get(c.Shape)
			defer st.put(c.Shape)
			if err != nil {
				return nil, err
			}
			opts := core.DefaultOptions(c.System, cfg.PE)
			opts.SSD.Channels = ScenarioChannels
			if c.Scale > 0 {
				opts.SSD.FTL.SpareBlocks = reliabilitySpares(opts.SSD.FTL.Blocks)
				opts.SSD.Faults = DefaultFaultConfig(s.Seed).Scaled(c.Scale)
			}
			r, err := core.NewRunner(opts)
			if err != nil {
				return nil, err
			}
			// Shaping changes arrival models only: names and windows are
			// the tenants'.
			r.TrackTenants(trace.TenantNames(tenants))
			// cfg.Ctx propagates into the event loop, so SIGINT stops a
			// cell mid-replay instead of only between shards.
			m, err := r.Replay(cfg.Ctx, "scenario", reqs, trace.WindowEnd(tenants), c.QD)
			if err != nil {
				return nil, err
			}
			cfg.record(s, m)
			rows := make([]ScenarioRow, 0, 1+len(m.Tenants))
			all := ScenarioRow{
				Shape: c.Shape, Scale: c.Scale, QD: c.QD, System: c.System,
				Tenant:   ScenarioAllTenant,
				Requests: int64(cfg.Requests),
				AvgRead:  m.AvgRead, P50Read: m.P50Read, P95Read: m.P95Read, P99Read: m.P99Read,
				SimTime:    m.SimTime,
				Unreadable: m.Unreadable, RetiredBlocks: m.RetiredBlocks, DataLoss: m.DataLoss,
			}
			if m.SimTime > 0 {
				all.IOPS = float64(cfg.Requests) / m.SimTime
			}
			rows = append(rows, all)
			for _, tm := range m.Tenants {
				row := ScenarioRow{
					Shape: c.Shape, Scale: c.Scale, QD: c.QD, System: c.System,
					Tenant:   tm.Name,
					Requests: tm.Requests,
					AvgRead:  tm.AvgRead, P50Read: tm.P50Read, P95Read: tm.P95Read, P99Read: tm.P99Read,
					SimTime: m.SimTime,
				}
				if m.SimTime > 0 {
					row.IOPS = float64(tm.Requests) / m.SimTime
				}
				s.AddGauge("tenant_"+tm.Name+"_p99_read_s", tm.P99Read)
				rows = append(rows, row)
			}
			return rows, nil
		})
	if err != nil {
		return nil, err
	}
	return slices.Concat(groups...), nil
}

// PrintScenario renders the matrix.
func PrintScenario(w io.Writer, rows []ScenarioRow) {
	fmt.Fprintf(w, "Scenario matrix — shape × fault scale × queue depth × system, %d channels, per-tenant attribution\n",
		ScenarioChannels)
	fmt.Fprintf(w, "  %-8s %-6s %-4s %-22s %-8s %9s %10s %10s %10s %10s\n",
		"shape", "faults", "qd", "system", "tenant", "requests", "IOPS", "avg read", "p95 read", "p99 read")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8s %-6g %-4d %-22s %-8s %9d %10.0f %8.1fµs %8.1fµs %8.1fµs\n",
			r.Shape, r.Scale, r.QD, r.System, r.Tenant, r.Requests, r.IOPS,
			r.AvgRead*1e6, r.P95Read*1e6, r.P99Read*1e6)
	}
	// Tail-latency spread: per shape, the worst tenant p99 over the best,
	// FlexLevel at the deepest queue — the fairness view of the matrix.
	fmt.Fprintln(w, "  per-tenant p99 spread (leveladjust+accesseval, deepest queue, fault-free):")
	deepest := ScenarioQueueDepths[len(ScenarioQueueDepths)-1]
	for _, shape := range ScenarioShapes {
		var min, max float64
		var minName, maxName string
		for _, r := range rows {
			if r.Shape != shape || r.Scale != 0 || r.QD != deepest ||
				r.System != core.FlexLevel || r.Tenant == ScenarioAllTenant {
				continue
			}
			if minName == "" || r.P99Read < min {
				min, minName = r.P99Read, r.Tenant
			}
			if maxName == "" || r.P99Read > max {
				max, maxName = r.P99Read, r.Tenant
			}
		}
		if minName == "" || min <= 0 {
			continue
		}
		fmt.Fprintf(w, "    %-8s %.1fx (%s %.1fµs vs %s %.1fµs)\n",
			shape, max/min, maxName, max*1e6, minName, min*1e6)
	}
}
