package exp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"flexlevel/internal/core"
)

// CSV artifacts: each experiment can emit a plotting-friendly CSV
// alongside the human-readable text, so figures can be regenerated with
// any external tool. Every artifact declares its column layout once, as
// a table: per column the header name, the fmt verb that writes it and
// the rule that parses and range-checks it back. One writer and one
// reader serve all of them; the reader backs the golden round-trip
// tests and is fuzzed for robustness.

// column is one CSV column of an artifact whose rows have type R.
type column[R any] struct {
	name  string
	verb  string
	value func(*R) any
	parse func(*R, string) error
}

// intMinCol is an integer column written with %d that parses back only
// values >= lo.
func intMinCol[R any, I int | int64](name string, lo int64, field func(*R) *I) column[R] {
	return column[R]{name: name, verb: "%d",
		value: func(r *R) any { return *field(r) },
		parse: func(r *R, s string) error {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil || v < lo {
				return fmt.Errorf("bad %s %q", name, s)
			}
			*field(r) = I(v)
			return nil
		}}
}

// intCol is a non-negative integer column.
func intCol[R any, I int | int64](name string, field func(*R) *I) column[R] {
	return intMinCol(name, 0, field)
}

// floatMinCol is a float column written with verb that parses back only
// values that are not below lo (NaN passes: it compares false).
func floatMinCol[R any](name, verb string, lo float64, field func(*R) *float64) column[R] {
	return column[R]{name: name, verb: verb,
		value: func(r *R) any { return *field(r) },
		parse: func(r *R, s string) error {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || v < lo {
				return fmt.Errorf("bad %s %q", name, s)
			}
			*field(r) = v
			return nil
		}}
}

// floatCol is a float column with no range limit.
func floatCol[R any](name, verb string, field func(*R) *float64) column[R] {
	return floatMinCol(name, verb, math.Inf(-1), field)
}

// strCol is a non-empty text column; a non-empty oneOf limits it to
// those values.
func strCol[R any](name string, oneOf []string, field func(*R) *string) column[R] {
	return column[R]{name: name, verb: "%s",
		value: func(r *R) any { return *field(r) },
		parse: func(r *R, s string) error {
			if s == "" || len(oneOf) > 0 && !slices.Contains(oneOf, s) {
				return fmt.Errorf("bad %s %q", name, s)
			}
			*field(r) = s
			return nil
		}}
}

// boolCol is a true/false column.
func boolCol[R any](name string, field func(*R) *bool) column[R] {
	return column[R]{name: name, verb: "%t",
		value: func(r *R) any { return *field(r) },
		parse: func(r *R, s string) (err error) {
			if *field(r), err = strconv.ParseBool(s); err != nil {
				return fmt.Errorf("bad %s %q", name, s)
			}
			return nil
		}}
}

// systemCol is a storage-system column, written as core.System's name.
func systemCol[R any](name string, field func(*R) *core.System) column[R] {
	return column[R]{name: name, verb: "%v",
		value: func(r *R) any { return *field(r) },
		parse: func(r *R, s string) (err error) {
			*field(r), err = core.ParseSystem(s)
			return err
		}}
}

// table is the column layout of one artifact.
type table[R any] struct {
	name string // names the artifact in reader errors
	cols []column[R]
}

func (t table[R]) header() string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.name
	}
	return strings.Join(names, ",")
}

// write emits the header and one line per row.
func (t table[R]) write(w io.Writer, rows []R) error {
	if _, err := fmt.Fprintln(w, t.header()); err != nil {
		return err
	}
	verbs := make([]string, len(t.cols))
	for i, c := range t.cols {
		verbs[i] = c.verb
	}
	format := strings.Join(verbs, ",") + "\n"
	args := make([]any, len(t.cols))
	for i := range rows {
		for j, c := range t.cols {
			args[j] = c.value(&rows[i])
		}
		if _, err := fmt.Fprintf(w, format, args...); err != nil {
			return err
		}
	}
	return nil
}

// read parses an artifact back into rows. The header line is required
// verbatim; blank lines are skipped; a malformed row fails with its
// line number. Only the columns the artifact carries are populated.
func (t table[R]) read(r io.Reader) ([]R, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	header := t.header()
	line := 0
	sawHeader := false
	var rows []R
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if !sawHeader {
			if text != header {
				return nil, fmt.Errorf("exp: line %d: missing %s header", line, t.name)
			}
			sawHeader = true
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != len(t.cols) {
			return nil, fmt.Errorf("exp: line %d: want %d fields, have %d", line, len(t.cols), len(fields))
		}
		var row R
		for i, c := range t.cols {
			if err := c.parse(&row, fields[i]); err != nil {
				return nil, fmt.Errorf("exp: line %d: %w", line, err)
			}
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("exp: empty %s CSV", t.name)
	}
	return rows, nil
}

// ---------------------------------------------------------- the tables

var fig5CSV = table[Fig5Row]{"fig5", []column[Fig5Row]{
	strCol("scheme", nil, func(r *Fig5Row) *string { return &r.Scheme }),
	floatCol("c2c_ber", "%.6e", func(r *Fig5Row) *float64 { return &r.C2CBER }),
}}

// table4Line is one (cell, storage time) line of the long-form Table 4.
type table4Line struct {
	PE     int
	Scheme string
	Hours  float64
	BER    float64
}

var table4CSV = table[table4Line]{"table4", []column[table4Line]{
	intCol("pe", func(r *table4Line) *int { return &r.PE }),
	strCol("scheme", nil, func(r *table4Line) *string { return &r.Scheme }),
	floatCol("hours", "%.0f", func(r *table4Line) *float64 { return &r.Hours }),
	floatCol("ber", "%.6e", func(r *table4Line) *float64 { return &r.BER }),
}}

// table5Line is one (P/E, storage time) line of the long-form Table 5.
type table5Line struct {
	PE     int
	Hours  float64
	Levels int
}

var table5CSV = table[table5Line]{"table5", []column[table5Line]{
	intCol("pe", func(r *table5Line) *int { return &r.PE }),
	floatCol("hours", "%.0f", func(r *table5Line) *float64 { return &r.Hours }),
	intCol("levels", func(r *table5Line) *int { return &r.Levels }),
}}

// fig6aLine is one (workload, system) cell of Fig. 6(a) with its
// response time normalized to LDPC-in-SSD on the same workload.
type fig6aLine struct {
	Workload string
	System   core.System
	Norm     float64
	core.Metrics
}

var fig6aCSV = table[fig6aLine]{"fig6a", []column[fig6aLine]{
	strCol("workload", nil, func(r *fig6aLine) *string { return &r.Workload }),
	systemCol("system", func(r *fig6aLine) *core.System { return &r.System }),
	floatCol("avg_response_s", "%.9f", func(r *fig6aLine) *float64 { return &r.AvgResponse }),
	floatCol("norm_vs_ldpcinssd", "%.4f", func(r *fig6aLine) *float64 { return &r.Norm }),
	floatCol("capacity_loss", "%.5f", func(r *fig6aLine) *float64 { return &r.CapacityLoss }),
	intCol("total_programs", func(r *fig6aLine) *int64 { return &r.TotalPrograms }),
	intCol("erases", func(r *fig6aLine) *int64 { return &r.Erases }),
	intCol("migrations", func(r *fig6aLine) *int64 { return &r.Migrations }),
}}

var fig7CSV = table[Fig7Row]{"fig7", []column[Fig7Row]{
	strCol("workload", nil, func(r *Fig7Row) *string { return &r.Workload }),
	floatCol("write_increase", "%.4f", func(r *Fig7Row) *float64 { return &r.WriteIncrease }),
	floatCol("erase_increase", "%.4f", func(r *Fig7Row) *float64 { return &r.EraseIncrease }),
	floatCol("lifetime", "%.4f", func(r *Fig7Row) *float64 { return &r.Lifetime }),
}}

var reliabilityCSV = table[ReliabilityRow]{"reliability", []column[ReliabilityRow]{
	floatCol("scale", "%g", func(r *ReliabilityRow) *float64 { return &r.Scale }),
	systemCol("system", func(r *ReliabilityRow) *core.System { return &r.System }),
	floatCol("avg_response_s", "%.6e", func(r *ReliabilityRow) *float64 { return &r.AvgResponse }),
	floatCol("avg_read_s", "%.6e", func(r *ReliabilityRow) *float64 { return &r.AvgRead }),
	intCol("retired_blocks", func(r *ReliabilityRow) *int64 { return &r.RetiredBlocks }),
	intCol("program_failures", func(r *ReliabilityRow) *int64 { return &r.ProgramFailures }),
	intCol("erase_failures", func(r *ReliabilityRow) *int64 { return &r.EraseFailures }),
	intCol("grown_bad", func(r *ReliabilityRow) *int64 { return &r.GrownBadBlocks }),
	intCol("spares_used", func(r *ReliabilityRow) *int64 { return &r.SparesUsed }),
	intCol("writes_rejected", func(r *ReliabilityRow) *int64 { return &r.WritesRejected }),
	intCol("write_failures", func(r *ReliabilityRow) *int64 { return &r.WriteFailures }),
	intCol("transient_read_faults", func(r *ReliabilityRow) *int64 { return &r.TransientReadFaults }),
	intCol("read_retries", func(r *ReliabilityRow) *int64 { return &r.ReadRetries }),
	intCol("data_loss", func(r *ReliabilityRow) *int64 { return &r.DataLoss }),
	floatCol("effective_uber", "%.6e", func(r *ReliabilityRow) *float64 { return &r.EffectiveUBER }),
	floatCol("write_amp", "%.4f", func(r *ReliabilityRow) *float64 { return &r.WriteAmp }),
	boolCol("degraded", func(r *ReliabilityRow) *bool { return &r.Degraded }),
}}

var crashCSV = table[CrashRow]{"crash", []column[CrashRow]{
	intCol("crash_point", func(r *CrashRow) *int64 { return &r.CrashPoint }),
	intCol("recovery_reads", func(r *CrashRow) *int64 { return &r.RecoveryReads }),
	intCol("recovery_records", func(r *CrashRow) *int64 { return &r.RecoveryRecords }),
	intCol("torn_pages", func(r *CrashRow) *int64 { return &r.RecoveryTornPages }),
	floatCol("recovery_time_s", "%.9f", func(r *CrashRow) *float64 { return &r.RecoveryTimeSec }),
	intCol("in_flight_lost", func(r *CrashRow) *int64 { return &r.InFlightLost }),
	intCol("data_loss", func(r *CrashRow) *int64 { return &r.DataLoss }),
	intCol("oob_mismatches", func(r *CrashRow) *int64 { return &r.OOBMismatches }),
	boolCol("idempotent", func(r *CrashRow) *bool { return &r.Idempotent }),
}}

var throughputCSV = table[ThroughputRow]{"throughput", []column[ThroughputRow]{
	intCol("qd", func(r *ThroughputRow) *int { return &r.QD }),
	systemCol("system", func(r *ThroughputRow) *core.System { return &r.System }),
	floatCol("iops", "%.6e", func(r *ThroughputRow) *float64 { return &r.IOPS }),
	floatCol("avg_response_s", "%.6e", func(r *ThroughputRow) *float64 { return &r.AvgResponse }),
	floatCol("avg_read_s", "%.6e", func(r *ThroughputRow) *float64 { return &r.AvgRead }),
	floatCol("p50_read_s", "%.6e", func(r *ThroughputRow) *float64 { return &r.P50Read }),
	floatCol("p95_read_s", "%.6e", func(r *ThroughputRow) *float64 { return &r.P95Read }),
	floatCol("p99_read_s", "%.6e", func(r *ThroughputRow) *float64 { return &r.P99Read }),
	floatCol("sim_time_s", "%.6e", func(r *ThroughputRow) *float64 { return &r.SimTime }),
}}

var scenarioCSV = table[ScenarioRow]{"scenario", []column[ScenarioRow]{
	strCol("shape", nil, func(r *ScenarioRow) *string { return &r.Shape }),
	floatCol("faults", "%g", func(r *ScenarioRow) *float64 { return &r.Scale }),
	intCol("qd", func(r *ScenarioRow) *int { return &r.QD }),
	systemCol("system", func(r *ScenarioRow) *core.System { return &r.System }),
	strCol("tenant", nil, func(r *ScenarioRow) *string { return &r.Tenant }),
	intCol("requests", func(r *ScenarioRow) *int64 { return &r.Requests }),
	floatCol("iops", "%.6e", func(r *ScenarioRow) *float64 { return &r.IOPS }),
	floatCol("avg_read_s", "%.6e", func(r *ScenarioRow) *float64 { return &r.AvgRead }),
	floatCol("p50_read_s", "%.6e", func(r *ScenarioRow) *float64 { return &r.P50Read }),
	floatCol("p95_read_s", "%.6e", func(r *ScenarioRow) *float64 { return &r.P95Read }),
	floatCol("p99_read_s", "%.6e", func(r *ScenarioRow) *float64 { return &r.P99Read }),
	floatCol("sim_time_s", "%.6e", func(r *ScenarioRow) *float64 { return &r.SimTime }),
	intCol("unreadable", func(r *ScenarioRow) *int64 { return &r.Unreadable }),
	intCol("retired_blocks", func(r *ScenarioRow) *int64 { return &r.RetiredBlocks }),
	intCol("data_loss", func(r *ScenarioRow) *int64 { return &r.DataLoss }),
}}

var adaptiveCSV = table[AdaptiveRow]{"adaptive", []column[AdaptiveRow]{
	strCol("scheme", nil, func(r *AdaptiveRow) *string { return &r.Scheme }),
	strCol("mode", []string{StaticMode, AdaptiveMode}, func(r *AdaptiveRow) *string { return &r.Mode }),
	intCol("pe", func(r *AdaptiveRow) *int { return &r.PE }),
	floatMinCol("age_hours", "%g", 0, func(r *AdaptiveRow) *float64 { return &r.AgeHours }),
	floatCol("mean_levels", "%.4f", func(r *AdaptiveRow) *float64 { return &r.MeanLevels }),
	floatCol("avg_read_s", "%.6e", func(r *AdaptiveRow) *float64 { return &r.AvgRead }),
	intCol("unreadable", func(r *AdaptiveRow) *int64 { return &r.Unreadable }),
	intCol("refreshes", func(r *AdaptiveRow) *int64 { return &r.Refreshes }),
	intCol("refresh_failures", func(r *AdaptiveRow) *int64 { return &r.RefreshFailures }),
	intCol("recalibrations", func(r *AdaptiveRow) *int64 { return &r.Recalibrations }),
	intCol("calib_probes", func(r *AdaptiveRow) *int64 { return &r.CalibProbes }),
	intCol("calib_rescues", func(r *AdaptiveRow) *int64 { return &r.CalibRescues }),
	intCol("calib_rereads", func(r *AdaptiveRow) *int64 { return &r.CalibReReads }),
	intCol("escalated_retirements", func(r *AdaptiveRow) *int64 { return &r.EscalatedRetirements }),
}}

var lifetimeCSV = table[LifetimeRow]{"lifetime", []column[LifetimeRow]{
	strCol("scheme", nil, func(r *LifetimeRow) *string { return &r.Scheme }),
	strCol("policy", LifetimePolicies(), func(r *LifetimeRow) *string { return &r.Policy }),
	intMinCol("epoch", 1, func(r *LifetimeRow) *int { return &r.Epoch }),
	floatMinCol("age_hours", "%g", 0, func(r *LifetimeRow) *float64 { return &r.AgeHours }),
	floatMinCol("mean_pe", "%.2f", 0, func(r *LifetimeRow) *float64 { return &r.MeanPE }),
	intCol("spares_left", func(r *LifetimeRow) *int { return &r.SparesLeft }),
	intCol("retired_blocks", func(r *LifetimeRow) *int64 { return &r.RetiredBlocks }),
	intCol("patrolled", func(r *LifetimeRow) *int64 { return &r.Patrolled }),
	intCol("unreadable", func(r *LifetimeRow) *int64 { return &r.Unreadable }),
	floatMinCol("uber", "%.6e", 0, func(r *LifetimeRow) *float64 { return &r.UBER }),
	intCol("refreshes", func(r *LifetimeRow) *int64 { return &r.Refreshes }),
	intCol("user_writes", func(r *LifetimeRow) *int64 { return &r.UserWrites }),
	intCol("total_programs", func(r *LifetimeRow) *int64 { return &r.TotalPrograms }),
	floatMinCol("write_amp", "%.4f", 0, func(r *LifetimeRow) *float64 { return &r.WriteAmp }),
	intCol("tbw_bytes", func(r *LifetimeRow) *int64 { return &r.TBWBytes }),
	boolCol("degraded", func(r *LifetimeRow) *bool { return &r.Degraded }),
}}

// ------------------------------------------------------- the entry points

// WriteFig5CSV emits scheme,c2c_ber.
func WriteFig5CSV(w io.Writer, rows []Fig5Row) error { return fig5CSV.write(w, rows) }

// WriteTable4CSV emits pe,scheme,hours,ber in long form.
func WriteTable4CSV(w io.Writer, cells []Table4Cell) error {
	var lines []table4Line
	for _, c := range cells {
		for ti, t := range RetentionTimes {
			lines = append(lines, table4Line{PE: c.PE, Scheme: c.Scheme, Hours: t.Hours, BER: c.BER[ti]})
		}
	}
	return table4CSV.write(w, lines)
}

// WriteTable5CSV emits pe,hours,levels in long form.
func WriteTable5CSV(w io.Writer, rows []Table5Row) error {
	var lines []table5Line
	for _, r := range rows {
		for i, h := range table5Hours {
			lines = append(lines, table5Line{PE: r.PE, Hours: h, Levels: r.Levels[i]})
		}
	}
	return table5CSV.write(w, lines)
}

// WriteFig6aCSV emits one line per (workload, system) cell.
func WriteFig6aCSV(w io.Writer, d *Fig6aData) error {
	var lines []fig6aLine
	ri := d.systemIndex(core.LDPCInSSD)
	for wi, name := range d.Workloads {
		ref := d.Cells[wi][ri].AvgResponse
		for si, sys := range d.Systems {
			line := fig6aLine{Workload: name, System: sys, Metrics: d.Cells[wi][si].Metrics}
			if ref > 0 {
				line.Norm = line.AvgResponse / ref
			}
			lines = append(lines, line)
		}
	}
	return fig6aCSV.write(w, lines)
}

// WriteFig7CSV emits workload,write_increase,erase_increase,lifetime.
func WriteFig7CSV(w io.Writer, rows []Fig7Row) error { return fig7CSV.write(w, rows) }

// WriteReliabilityCSV emits the reliability sweep in long form.
func WriteReliabilityCSV(w io.Writer, rows []ReliabilityRow) error {
	return reliabilityCSV.write(w, rows)
}

// ReadReliabilityCSV parses a WriteReliabilityCSV artifact back.
func ReadReliabilityCSV(r io.Reader) ([]ReliabilityRow, error) { return reliabilityCSV.read(r) }

// WriteCrashCSV emits the per-crash-point rows.
func WriteCrashCSV(w io.Writer, rows []CrashRow) error { return crashCSV.write(w, rows) }

// WriteThroughputCSV emits the throughput sweep in long form.
func WriteThroughputCSV(w io.Writer, rows []ThroughputRow) error {
	return throughputCSV.write(w, rows)
}

// WriteScenarioCSV emits the scenario matrix in long form.
func WriteScenarioCSV(w io.Writer, rows []ScenarioRow) error { return scenarioCSV.write(w, rows) }

// WriteAdaptiveCSV emits the adaptive sweep in long form.
func WriteAdaptiveCSV(w io.Writer, rows []AdaptiveRow) error { return adaptiveCSV.write(w, rows) }

// ReadAdaptiveCSV parses a WriteAdaptiveCSV artifact back.
func ReadAdaptiveCSV(r io.Reader) ([]AdaptiveRow, error) { return adaptiveCSV.read(r) }

// WriteLifetimeCSV emits the per-epoch lifetime trajectories in long
// form.
func WriteLifetimeCSV(w io.Writer, rows []LifetimeRow) error { return lifetimeCSV.write(w, rows) }

// ReadLifetimeCSV parses a WriteLifetimeCSV artifact back.
func ReadLifetimeCSV(r io.Reader) ([]LifetimeRow, error) { return lifetimeCSV.read(r) }
