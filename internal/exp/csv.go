package exp

import (
	"io"

	"flexlevel/internal/core"
	"flexlevel/internal/csvtab"
)

// CSV artifacts: each experiment can emit a plotting-friendly CSV
// alongside the human-readable text, so figures can be regenerated with
// any external tool. Every artifact declares its column layout once, as
// a csvtab.Table; the shared reader backs the golden round-trip tests
// and is fuzzed for robustness.

// systemCol is a storage-system column, written as core.System's name.
func systemCol[R any](name string, field func(*R) *core.System) csvtab.Column[R] {
	return csvtab.Column[R]{Name: name, Verb: "%v",
		Value: func(r *R) any { return *field(r) },
		Parse: func(r *R, s string) (err error) {
			*field(r), err = core.ParseSystem(s)
			return err
		}}
}

// ---------------------------------------------------------- the tables

var fig5CSV = csvtab.Table[Fig5Row]{Name: "fig5", Cols: []csvtab.Column[Fig5Row]{
	csvtab.Str("scheme", nil, func(r *Fig5Row) *string { return &r.Scheme }),
	csvtab.Float("c2c_ber", "%.6e", func(r *Fig5Row) *float64 { return &r.C2CBER }),
}}

// table4Line is one (cell, storage time) line of the long-form Table 4.
type table4Line struct {
	PE     int
	Scheme string
	Hours  float64
	BER    float64
}

var table4CSV = csvtab.Table[table4Line]{Name: "table4", Cols: []csvtab.Column[table4Line]{
	csvtab.Int("pe", func(r *table4Line) *int { return &r.PE }),
	csvtab.Str("scheme", nil, func(r *table4Line) *string { return &r.Scheme }),
	csvtab.Float("hours", "%.0f", func(r *table4Line) *float64 { return &r.Hours }),
	csvtab.Float("ber", "%.6e", func(r *table4Line) *float64 { return &r.BER }),
}}

// table5Line is one (P/E, storage time) line of the long-form Table 5.
type table5Line struct {
	PE     int
	Hours  float64
	Levels int
}

var table5CSV = csvtab.Table[table5Line]{Name: "table5", Cols: []csvtab.Column[table5Line]{
	csvtab.Int("pe", func(r *table5Line) *int { return &r.PE }),
	csvtab.Float("hours", "%.0f", func(r *table5Line) *float64 { return &r.Hours }),
	csvtab.Int("levels", func(r *table5Line) *int { return &r.Levels }),
}}

// fig6aLine is one (workload, system) cell of Fig. 6(a) with its
// response time normalized to LDPC-in-SSD on the same workload.
type fig6aLine struct {
	Workload string
	System   core.System
	Norm     float64
	core.Metrics
}

var fig6aCSV = csvtab.Table[fig6aLine]{Name: "fig6a", Cols: []csvtab.Column[fig6aLine]{
	csvtab.Str("workload", nil, func(r *fig6aLine) *string { return &r.Workload }),
	systemCol("system", func(r *fig6aLine) *core.System { return &r.System }),
	csvtab.Float("avg_response_s", "%.9f", func(r *fig6aLine) *float64 { return &r.AvgResponse }),
	csvtab.Float("norm_vs_ldpcinssd", "%.4f", func(r *fig6aLine) *float64 { return &r.Norm }),
	csvtab.Float("capacity_loss", "%.5f", func(r *fig6aLine) *float64 { return &r.CapacityLoss }),
	csvtab.Int("total_programs", func(r *fig6aLine) *int64 { return &r.TotalPrograms }),
	csvtab.Int("erases", func(r *fig6aLine) *int64 { return &r.Erases }),
	csvtab.Int("migrations", func(r *fig6aLine) *int64 { return &r.Migrations }),
}}

var fig7CSV = csvtab.Table[Fig7Row]{Name: "fig7", Cols: []csvtab.Column[Fig7Row]{
	csvtab.Str("workload", nil, func(r *Fig7Row) *string { return &r.Workload }),
	csvtab.Float("write_increase", "%.4f", func(r *Fig7Row) *float64 { return &r.WriteIncrease }),
	csvtab.Float("erase_increase", "%.4f", func(r *Fig7Row) *float64 { return &r.EraseIncrease }),
	csvtab.Float("lifetime", "%.4f", func(r *Fig7Row) *float64 { return &r.Lifetime }),
}}

var reliabilityCSV = csvtab.Table[ReliabilityRow]{Name: "reliability", Cols: []csvtab.Column[ReliabilityRow]{
	csvtab.Float("scale", "%g", func(r *ReliabilityRow) *float64 { return &r.Scale }),
	systemCol("system", func(r *ReliabilityRow) *core.System { return &r.System }),
	csvtab.Float("avg_response_s", "%.6e", func(r *ReliabilityRow) *float64 { return &r.AvgResponse }),
	csvtab.Float("avg_read_s", "%.6e", func(r *ReliabilityRow) *float64 { return &r.AvgRead }),
	csvtab.Int("retired_blocks", func(r *ReliabilityRow) *int64 { return &r.RetiredBlocks }),
	csvtab.Int("program_failures", func(r *ReliabilityRow) *int64 { return &r.ProgramFailures }),
	csvtab.Int("erase_failures", func(r *ReliabilityRow) *int64 { return &r.EraseFailures }),
	csvtab.Int("grown_bad", func(r *ReliabilityRow) *int64 { return &r.GrownBadBlocks }),
	csvtab.Int("spares_used", func(r *ReliabilityRow) *int64 { return &r.SparesUsed }),
	csvtab.Int("writes_rejected", func(r *ReliabilityRow) *int64 { return &r.WritesRejected }),
	csvtab.Int("write_failures", func(r *ReliabilityRow) *int64 { return &r.WriteFailures }),
	csvtab.Int("transient_read_faults", func(r *ReliabilityRow) *int64 { return &r.TransientReadFaults }),
	csvtab.Int("read_retries", func(r *ReliabilityRow) *int64 { return &r.ReadRetries }),
	csvtab.Int("data_loss", func(r *ReliabilityRow) *int64 { return &r.DataLoss }),
	csvtab.Float("effective_uber", "%.6e", func(r *ReliabilityRow) *float64 { return &r.EffectiveUBER }),
	csvtab.Float("write_amp", "%.4f", func(r *ReliabilityRow) *float64 { return &r.WriteAmp }),
	csvtab.Bool("degraded", func(r *ReliabilityRow) *bool { return &r.Degraded }),
}}

var crashCSV = csvtab.Table[CrashRow]{Name: "crash", Cols: []csvtab.Column[CrashRow]{
	csvtab.Int("crash_point", func(r *CrashRow) *int64 { return &r.CrashPoint }),
	csvtab.Int("recovery_reads", func(r *CrashRow) *int64 { return &r.RecoveryReads }),
	csvtab.Int("recovery_records", func(r *CrashRow) *int64 { return &r.RecoveryRecords }),
	csvtab.Int("torn_pages", func(r *CrashRow) *int64 { return &r.RecoveryTornPages }),
	csvtab.Float("recovery_time_s", "%.9f", func(r *CrashRow) *float64 { return &r.RecoveryTimeSec }),
	csvtab.Int("in_flight_lost", func(r *CrashRow) *int64 { return &r.InFlightLost }),
	csvtab.Int("data_loss", func(r *CrashRow) *int64 { return &r.DataLoss }),
	csvtab.Int("oob_mismatches", func(r *CrashRow) *int64 { return &r.OOBMismatches }),
	csvtab.Bool("idempotent", func(r *CrashRow) *bool { return &r.Idempotent }),
}}

var throughputCSV = csvtab.Table[ThroughputRow]{Name: "throughput", Cols: []csvtab.Column[ThroughputRow]{
	csvtab.Int("qd", func(r *ThroughputRow) *int { return &r.QD }),
	systemCol("system", func(r *ThroughputRow) *core.System { return &r.System }),
	csvtab.Float("iops", "%.6e", func(r *ThroughputRow) *float64 { return &r.IOPS }),
	csvtab.Float("avg_response_s", "%.6e", func(r *ThroughputRow) *float64 { return &r.AvgResponse }),
	csvtab.Float("avg_read_s", "%.6e", func(r *ThroughputRow) *float64 { return &r.AvgRead }),
	csvtab.Float("p50_read_s", "%.6e", func(r *ThroughputRow) *float64 { return &r.P50Read }),
	csvtab.Float("p95_read_s", "%.6e", func(r *ThroughputRow) *float64 { return &r.P95Read }),
	csvtab.Float("p99_read_s", "%.6e", func(r *ThroughputRow) *float64 { return &r.P99Read }),
	csvtab.Float("sim_time_s", "%.6e", func(r *ThroughputRow) *float64 { return &r.SimTime }),
}}

var scenarioCSV = csvtab.Table[ScenarioRow]{Name: "scenario", Cols: []csvtab.Column[ScenarioRow]{
	csvtab.Str("shape", nil, func(r *ScenarioRow) *string { return &r.Shape }),
	csvtab.Float("faults", "%g", func(r *ScenarioRow) *float64 { return &r.Scale }),
	csvtab.Int("qd", func(r *ScenarioRow) *int { return &r.QD }),
	systemCol("system", func(r *ScenarioRow) *core.System { return &r.System }),
	csvtab.Str("tenant", nil, func(r *ScenarioRow) *string { return &r.Tenant }),
	csvtab.Int("requests", func(r *ScenarioRow) *int64 { return &r.Requests }),
	csvtab.Float("iops", "%.6e", func(r *ScenarioRow) *float64 { return &r.IOPS }),
	csvtab.Float("avg_read_s", "%.6e", func(r *ScenarioRow) *float64 { return &r.AvgRead }),
	csvtab.Float("p50_read_s", "%.6e", func(r *ScenarioRow) *float64 { return &r.P50Read }),
	csvtab.Float("p95_read_s", "%.6e", func(r *ScenarioRow) *float64 { return &r.P95Read }),
	csvtab.Float("p99_read_s", "%.6e", func(r *ScenarioRow) *float64 { return &r.P99Read }),
	csvtab.Float("sim_time_s", "%.6e", func(r *ScenarioRow) *float64 { return &r.SimTime }),
	csvtab.Int("unreadable", func(r *ScenarioRow) *int64 { return &r.Unreadable }),
	csvtab.Int("retired_blocks", func(r *ScenarioRow) *int64 { return &r.RetiredBlocks }),
	csvtab.Int("data_loss", func(r *ScenarioRow) *int64 { return &r.DataLoss }),
}}

var adaptiveCSV = csvtab.Table[AdaptiveRow]{Name: "adaptive", Cols: []csvtab.Column[AdaptiveRow]{
	csvtab.Str("scheme", nil, func(r *AdaptiveRow) *string { return &r.Scheme }),
	csvtab.Str("mode", []string{StaticMode, AdaptiveMode}, func(r *AdaptiveRow) *string { return &r.Mode }),
	csvtab.Int("pe", func(r *AdaptiveRow) *int { return &r.PE }),
	csvtab.FloatMin("age_hours", "%g", 0, func(r *AdaptiveRow) *float64 { return &r.AgeHours }),
	csvtab.Float("mean_levels", "%.4f", func(r *AdaptiveRow) *float64 { return &r.MeanLevels }),
	csvtab.Float("avg_read_s", "%.6e", func(r *AdaptiveRow) *float64 { return &r.AvgRead }),
	csvtab.Int("unreadable", func(r *AdaptiveRow) *int64 { return &r.Unreadable }),
	csvtab.Int("refreshes", func(r *AdaptiveRow) *int64 { return &r.Refreshes }),
	csvtab.Int("refresh_failures", func(r *AdaptiveRow) *int64 { return &r.RefreshFailures }),
	csvtab.Int("recalibrations", func(r *AdaptiveRow) *int64 { return &r.Recalibrations }),
	csvtab.Int("calib_probes", func(r *AdaptiveRow) *int64 { return &r.CalibProbes }),
	csvtab.Int("calib_rescues", func(r *AdaptiveRow) *int64 { return &r.CalibRescues }),
	csvtab.Int("calib_rereads", func(r *AdaptiveRow) *int64 { return &r.CalibReReads }),
	csvtab.Int("escalated_retirements", func(r *AdaptiveRow) *int64 { return &r.EscalatedRetirements }),
}}

var lifetimeCSV = csvtab.Table[LifetimeRow]{Name: "lifetime", Cols: []csvtab.Column[LifetimeRow]{
	csvtab.Str("scheme", nil, func(r *LifetimeRow) *string { return &r.Scheme }),
	csvtab.Str("policy", LifetimePolicies(), func(r *LifetimeRow) *string { return &r.Policy }),
	csvtab.IntMin("epoch", 1, func(r *LifetimeRow) *int { return &r.Epoch }),
	csvtab.FloatMin("age_hours", "%g", 0, func(r *LifetimeRow) *float64 { return &r.AgeHours }),
	csvtab.FloatMin("mean_pe", "%.2f", 0, func(r *LifetimeRow) *float64 { return &r.MeanPE }),
	csvtab.Int("spares_left", func(r *LifetimeRow) *int { return &r.SparesLeft }),
	csvtab.Int("retired_blocks", func(r *LifetimeRow) *int64 { return &r.RetiredBlocks }),
	csvtab.Int("patrolled", func(r *LifetimeRow) *int64 { return &r.Patrolled }),
	csvtab.Int("unreadable", func(r *LifetimeRow) *int64 { return &r.Unreadable }),
	csvtab.FloatMin("uber", "%.6e", 0, func(r *LifetimeRow) *float64 { return &r.UBER }),
	csvtab.Int("refreshes", func(r *LifetimeRow) *int64 { return &r.Refreshes }),
	csvtab.Int("user_writes", func(r *LifetimeRow) *int64 { return &r.UserWrites }),
	csvtab.Int("total_programs", func(r *LifetimeRow) *int64 { return &r.TotalPrograms }),
	csvtab.FloatMin("write_amp", "%.4f", 0, func(r *LifetimeRow) *float64 { return &r.WriteAmp }),
	csvtab.Int("tbw_bytes", func(r *LifetimeRow) *int64 { return &r.TBWBytes }),
	csvtab.Bool("degraded", func(r *LifetimeRow) *bool { return &r.Degraded }),
}}

// ------------------------------------------------------- the entry points

// WriteTable4CSV emits pe,scheme,hours,ber in long form.
func WriteTable4CSV(w io.Writer, cells []Table4Cell) error {
	var lines []table4Line
	for _, c := range cells {
		for ti, t := range RetentionTimes {
			lines = append(lines, table4Line{PE: c.PE, Scheme: c.Scheme, Hours: t.Hours, BER: c.BER[ti]})
		}
	}
	return table4CSV.Write(w, lines)
}

// WriteTable5CSV emits pe,hours,levels in long form.
func WriteTable5CSV(w io.Writer, rows []Table5Row) error {
	var lines []table5Line
	for _, r := range rows {
		for i, h := range table5Hours {
			lines = append(lines, table5Line{PE: r.PE, Hours: h, Levels: r.Levels[i]})
		}
	}
	return table5CSV.Write(w, lines)
}

// WriteFig6aCSV emits one line per (workload, system) cell.
func WriteFig6aCSV(w io.Writer, d *Fig6aData) error {
	var lines []fig6aLine
	ri := d.systemIndex(core.LDPCInSSD)
	for wi, name := range d.Workloads {
		for si, sys := range d.Systems {
			m := d.Cells[wi][si].Metrics
			lines = append(lines, fig6aLine{Workload: name, System: sys,
				Norm: norm(m, d.Cells[wi][ri].Metrics), Metrics: m})
		}
	}
	return fig6aCSV.Write(w, lines)
}

// WriteLifetimeCSV emits the per-epoch lifetime trajectories in long
// form.
func WriteLifetimeCSV(w io.Writer, rows []LifetimeRow) error { return lifetimeCSV.Write(w, rows) }
