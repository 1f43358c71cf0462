// Crash-recovery experiment: the paper evaluates FlexLevel on a device
// that never loses power; this study sweeps a power cut across the
// lifetime of a write-heavy run and measures what recovery costs and
// whether it keeps the ack contract. Each crash point is one engine
// shard: the same workload replays until the scripted cut, the device
// restarts (checkpoint load + journal replay + full OOB scan), the
// recovered mapping is audited against the durable per-page metadata,
// recovery idempotence is checked on a clone of the media image, and
// the trace then runs to completion on the recovered device.
package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"flexlevel/internal/accesseval"
	"flexlevel/internal/core"
	"flexlevel/internal/fault"
	"flexlevel/internal/ftl"
	"flexlevel/internal/runner"
	"flexlevel/internal/trace"
)

// CrashWorkload is the trace driven through the crash sweep: prj-1 is
// the most write-heavy of the paper's workloads, so journal, GC and
// migration traffic all cross the crash points.
const CrashWorkload = "prj-1"

// crashOptions builds the journaled FlexLevel system the sweep crashes.
// The device is scaled down from the paper configuration so each shard
// (a full workload replay plus a device-wide recovery scan) stays
// seconds-cheap; the journal cadence is proportionally tighter so
// checkpoints, journal replay and OOB-scan recovery all occur.
func crashOptions(pe int, seed int64) core.Options {
	opts := core.DefaultOptions(core.FlexLevel, pe)
	f := &opts.SSD.FTL
	f.LogicalPages = 4096
	f.PagesPerBlock = 32
	f.Blocks = int(float64(f.LogicalPages)/float64(f.PagesPerBlock)/0.73) + 1
	f.SpareBlocks = 4
	f.InitialPE = pe
	f.Journal = ftl.JournalConfig{Enabled: true, FlushRecords: 64, CheckpointEveryFlushes: 8}
	opts.AccessEval = accesseval.DefaultParams(f.LogicalPages)
	opts.SSD.Seed = seed
	return opts
}

// CrashRow is the outcome of one crash point.
type CrashRow struct {
	CrashPoint        int64   // media-op index the power cut fired at
	RecoveryReads     int64   // checkpoint + journal + OOB reads to recover
	RecoveryRecords   int64   // journal records replayed
	RecoveryTornPages int64   // power-interrupted pages detected and discarded
	RecoveryTimeSec   float64 // simulated device unavailability
	InFlightLost      int64   // unacked writes cut mid-flight (allowed losses)
	DataLoss          int64   // acked mappings missing after recovery (must be 0)
	OOBMismatches     int64   // recovered mappings contradicting page metadata (must be 0)
	Idempotent        bool    // re-recovering the image reproduces the state
}

// CrashSummary is the machine-readable verdict of the sweep
// (crash_summary.json).
type CrashSummary struct {
	Name                string  `json:"name"`
	Workload            string  `json:"workload"`
	Requests            int     `json:"requests"`
	MasterSeed          int64   `json:"master_seed"`
	CrashPoints         int     `json:"crash_points"`
	TotalMediaOps       int64   `json:"total_media_ops"`
	MeanRecoveryReads   float64 `json:"mean_recovery_reads"`
	MaxRecoveryReads    int64   `json:"max_recovery_reads"`
	MeanRecoveryRecords float64 `json:"mean_recovery_records"`
	TornPages           int64   `json:"torn_pages_detected"`
	InFlightLost        int64   `json:"in_flight_lost"`
	DataLoss            int64   `json:"data_loss"`
	OOBMismatches       int64   `json:"oob_mismatches"`
	AllIdempotent       bool    `json:"all_idempotent"`
}

// CrashData is the full sweep outcome.
type CrashData struct {
	Rows    []CrashRow
	Summary CrashSummary
}

// CrashRecovery sweeps `points` power cuts evenly across the media
// operations of a full workload run. A serial fault-free pre-pass
// measures the run's media-op span (identical in every shard: all
// randomness derives from cfg.Seed, never from shard scheduling), then
// one shard per crash point replays the workload with the cut scripted
// at that operation, restarts, audits, and finishes the trace. Results
// are byte-identical for every cfg.Parallel value.
func CrashRecovery(cfg SimConfig, points int) (*CrashData, error) {
	if points < 1 {
		return nil, fmt.Errorf("exp: crash sweep needs at least one crash point")
	}
	opts := crashOptions(cfg.PE, cfg.Seed)
	w, err := trace.ByName(CrashWorkload, cfg.Requests, opts.SSD.FTL.LogicalPages, cfg.Seed)
	if err != nil {
		return nil, err
	}
	reqs, err := w.Generate()
	if err != nil {
		return nil, err
	}

	// Fault-free pre-pass: the crash points must land in the measured
	// phase, after preconditioning, and never exceed the run's span.
	pre, err := core.NewRunner(opts)
	if err != nil {
		return nil, err
	}
	if err := pre.Prepare(reqs, w.WorkingSet); err != nil {
		return nil, err
	}
	preOps := pre.Device().FTL().MediaOps()
	for _, req := range reqs {
		if err := pre.Step(req); err != nil {
			return nil, fmt.Errorf("exp: crash pre-pass: %w", err)
		}
	}
	totalOps := pre.Device().FTL().MediaOps()
	if totalOps <= preOps {
		return nil, fmt.Errorf("exp: crash workload performed no measured media ops (%d..%d)", preOps, totalOps)
	}

	// Media-op checks are 0-indexed, so the measured phase spans indexes
	// [preOps, totalOps); spread the cuts evenly across it, starting at
	// the very first measured operation.
	crashPoints := make([]int64, 0, points)
	span := totalOps - preOps
	for i := 0; i < points; i++ {
		p := preOps + span*int64(i)/int64(points)
		if n := len(crashPoints); n == 0 || crashPoints[n-1] != p {
			crashPoints = append(crashPoints, p)
		}
	}

	rows, _, err := runner.Map(cfg.Ctx, cfg.engine("crash-recovery"), crashPoints,
		func(_ int, p int64) string { return fmt.Sprintf("crash=%d", p) },
		func(s runner.Shard, p int64) (CrashRow, error) {
			row, err := runCrashPoint(s, opts, reqs, w.WorkingSet, p)
			s.AddOps(int64(len(reqs)))
			return row, err
		})
	if err != nil {
		return nil, err
	}

	sum := CrashSummary{
		Name:          "crash-recovery",
		Workload:      CrashWorkload,
		Requests:      cfg.Requests,
		MasterSeed:    cfg.Seed,
		CrashPoints:   len(rows),
		TotalMediaOps: totalOps,
		AllIdempotent: true,
	}
	var readSum, recSum float64
	for _, r := range rows {
		readSum += float64(r.RecoveryReads)
		recSum += float64(r.RecoveryRecords)
		if r.RecoveryReads > sum.MaxRecoveryReads {
			sum.MaxRecoveryReads = r.RecoveryReads
		}
		sum.TornPages += r.RecoveryTornPages
		sum.InFlightLost += r.InFlightLost
		sum.DataLoss += r.DataLoss
		sum.OOBMismatches += r.OOBMismatches
		sum.AllIdempotent = sum.AllIdempotent && r.Idempotent
	}
	if len(rows) > 0 {
		sum.MeanRecoveryReads = readSum / float64(len(rows))
		sum.MeanRecoveryRecords = recSum / float64(len(rows))
	}
	return &CrashData{Rows: rows, Summary: sum}, nil
}

// runCrashPoint is one shard: replay until the scripted cut, restart,
// audit the recovered state, finish the trace.
func runCrashPoint(s runner.Shard, opts core.Options, reqs []trace.Request, workingSet uint64, point int64) (CrashRow, error) {
	row := CrashRow{CrashPoint: point}
	opts.SSD.Faults = fault.Config{
		Script: []fault.ScriptEvent{{Op: fault.PowerLoss, Index: point}},
	}
	r, err := core.NewRunner(opts)
	if err != nil {
		return row, err
	}
	if err := r.Prepare(reqs, workingSet); err != nil {
		return row, err
	}
	crashed := false
	for _, req := range reqs {
		err := r.Step(req)
		if err == nil {
			continue
		}
		if !errors.Is(err, ftl.ErrPowerLoss) || crashed {
			return row, fmt.Errorf("exp: crash point %d: %w", point, err)
		}
		crashed = true
		if rep, err := restartAndAudit(r, opts.SSD.FTL, workingSet, &row, req.Arrival); err != nil {
			return row, fmt.Errorf("exp: crash point %d: %w", point, err)
		} else {
			row.RecoveryReads = int64(rep.TotalReads())
			row.RecoveryRecords = int64(rep.RecordsReplayed)
			row.RecoveryTornPages = int64(rep.TornPages)
		}
		// The cut request was in flight and never acknowledged; the
		// host resumes with the next one.
	}
	if !crashed {
		return row, fmt.Errorf("exp: crash point %d never fired (trace too short)", point)
	}
	res := r.Device().Results()
	row.InFlightLost = res.InFlightLost
	row.RecoveryTimeSec = res.RecoveryTime.Seconds()
	addCacheCounters(s, res.LevelCache, res.BERCache)
	return row, nil
}

// restartAndAudit powers the device back on and verifies the recovered
// state: every logical page maps to a physical page whose durable OOB
// metadata names that page (zero acked-write loss — preconditioning
// mapped the whole working set and nothing ever unmaps it), and
// recovering a clone of the media image reproduces the durable state
// bit-for-bit (idempotence).
func restartAndAudit(r *core.Runner, ftlCfg ftl.Config, workingSet uint64, row *CrashRow, now time.Duration) (ftl.RecoveryReport, error) {
	d := r.Device()
	rep, err := d.Restart(now)
	if err != nil {
		return rep, err
	}
	fl := d.FTL()
	m := fl.Media()
	for lpn := uint64(0); lpn < workingSet; lpn++ {
		ppn, state, ok := fl.Lookup(lpn)
		if !ok {
			row.DataLoss++
			continue
		}
		oob := m.PageOOB(ppn)
		if !oob.Written || !oob.Valid || oob.LPN != lpn || oob.State != state {
			row.OOBMismatches++
		}
	}
	clone := m.Clone()
	rf, _, rerr := ftl.Recover(ftlCfg, clone, nil)
	row.Idempotent = rerr == nil && bytes.Equal(rf.EncodeState(), fl.EncodeState())
	return rep, nil
}

// WriteCrashSummary emits crash_summary.json.
func (s CrashSummary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// PrintCrash renders the sweep as text.
func PrintCrash(w io.Writer, data *CrashData) {
	s := data.Summary
	fmt.Fprintf(w, "Crash recovery — %s, %d requests, %d crash points over %d media ops\n",
		s.Workload, s.Requests, s.CrashPoints, s.TotalMediaOps)
	fmt.Fprintf(w, "  %-12s %14s %16s %10s %10s %9s %5s\n",
		"crash_point", "recovery_reads", "records_replayed", "torn_pages", "in_flight", "data_loss", "idem")
	for _, r := range data.Rows {
		fmt.Fprintf(w, "  %-12d %14d %16d %10d %10d %9d %5t\n",
			r.CrashPoint, r.RecoveryReads, r.RecoveryRecords, r.RecoveryTornPages,
			r.InFlightLost, r.DataLoss, r.Idempotent)
	}
	fmt.Fprintf(w, "  recovery reads mean %.1f max %d; torn pages %d; in-flight lost %d\n",
		s.MeanRecoveryReads, s.MaxRecoveryReads, s.TornPages, s.InFlightLost)
	verdict := "PASS"
	if s.DataLoss > 0 || s.OOBMismatches > 0 || !s.AllIdempotent {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "  acked-write loss %d, OOB mismatches %d, idempotent %t -> %s\n",
		s.DataLoss, s.OOBMismatches, s.AllIdempotent, verdict)
}
