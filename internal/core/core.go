// Package core assembles the FlexLevel storage system and the three
// comparison systems of the paper's evaluation (§6.2):
//
//   - Baseline — soft-decision LDPC with worst-case fixed sensing.
//   - LDPCInSSD — progressive read retry with per-block memory [2].
//   - LevelAdjustOnly — every page in the reduced (LevelAdjust) state;
//     fast reads but 25% capacity loss eats the over-provisioning.
//   - FlexLevel — LevelAdjust + AccessEval: only high-LDPC-overhead data
//     migrates to a capacity-capped reduced pool.
//
// Run drives a synthetic workload through a system and reports the
// metrics behind Figures 6 and 7.
package core

import (
	"fmt"
	"time"

	"flexlevel/internal/accesseval"
	"flexlevel/internal/baseline"
	"flexlevel/internal/ftl"
	"flexlevel/internal/noise"
	"flexlevel/internal/nunma"
	"flexlevel/internal/sensing"
	"flexlevel/internal/ssd"
	"flexlevel/internal/trace"
)

// System identifies one of the four evaluated storage systems.
type System int

const (
	// Baseline is the no-scheme system with worst-case fixed sensing.
	Baseline System = iota
	// LDPCInSSD is the FAST'13 progressive-retry comparison system.
	LDPCInSSD
	// LevelAdjustOnly applies LevelAdjust to every page.
	LevelAdjustOnly
	// FlexLevel is LevelAdjust + AccessEval (the paper's design).
	FlexLevel
)

// Systems lists all four in evaluation order.
func Systems() []System {
	return []System{Baseline, LDPCInSSD, LevelAdjustOnly, FlexLevel}
}

// ParseSystem is the inverse of String: it resolves a system name as
// written in CSV artifacts back to its System value.
func ParseSystem(name string) (System, error) {
	for _, sys := range Systems() {
		if sys.String() == name {
			return sys, nil
		}
	}
	return 0, fmt.Errorf("core: unknown system %q", name)
}

func (s System) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case LDPCInSSD:
		return "ldpc-in-ssd"
	case LevelAdjustOnly:
		return "leveladjust-only"
	case FlexLevel:
		return "leveladjust+accesseval"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Options configures a system run.
type Options struct {
	System System
	// PE is the P/E cycle point of the evaluation (paper: 4000-6000).
	PE int
	// NUNMAConfig names the reduced-state configuration (paper uses
	// "NUNMA 3" so reduced pages never need soft sensing).
	NUNMAConfig string
	// SSD is the simulator configuration; its FTL.InitialPE is
	// overwritten by PE.
	SSD ssd.Config
	// AccessEval parameterizes the FlexLevel controller (ignored by the
	// other systems). Zero value = DefaultParams over the logical space.
	AccessEval accesseval.Params

	// AgedReducedPreload preconditions a LevelAdjustOnly working set
	// through the device's aging preload (random retention ages in
	// [0, MaxDataAgeHours]) instead of the legacy zero-age write loop.
	// Off by default: the paper-calibrated sweeps preload reduced data
	// ageless and their artifacts are golden-pinned; the adaptive
	// calibration study turns this on so reduced-pool reads see drift.
	AgedReducedPreload bool
}

// DefaultOptions returns the paper's evaluation point for a system.
func DefaultOptions(sys System, pe int) Options {
	cfg := ssd.DefaultConfig()
	return Options{
		System:      sys,
		PE:          pe,
		NUNMAConfig: "NUNMA 3",
		SSD:         cfg,
		AccessEval:  accesseval.DefaultParams(cfg.FTL.LogicalPages),
	}
}

// Metrics is the outcome of one workload run.
type Metrics struct {
	Workload string
	System   System

	AvgResponse float64 // seconds, all requests (Fig. 6 metric)
	AvgRead     float64
	AvgWrite    float64
	P50Read     float64 // read response percentiles, seconds
	P95Read     float64
	P99Read     float64

	// SimTime is the simulated makespan in seconds: the point at which
	// every flash channel went idle. Requests/SimTime is the throughput
	// sweep's IOPS.
	SimTime float64

	UserWrites    int64
	TotalPrograms int64 // Fig. 7(a) write count
	Erases        int64 // Fig. 7(b) erase count
	WriteAmp      float64

	Migrations int64
	Evictions  int64

	CapacityLoss float64 // paper §5 metric
	ReducedPages int

	LevelHist [8]int64 // final sensing level per read

	// Robustness outcomes: unreadable reads, in-place refreshes, and the
	// adaptive ladder's activity (recalibrations, probes, rescues,
	// escalated retirements). RefreshFailures counts rewrites the FTL
	// refused.
	Unreadable           int64
	Refreshes            int64
	RefreshFailures      int64
	Recalibrations       int64
	CalibProbes          int64
	CalibRescues         int64
	CalibReReads         int64
	EscalatedRetirements int64

	// Reliability outcomes (nonzero only when fault injection is on).
	Reads               int64
	RetiredBlocks       int64
	ProgramFailures     int64
	EraseFailures       int64
	GrownBadBlocks      int64
	SparesUsed          int64
	WritesRejected      int64
	WriteFailures       int64
	TransientReadFaults int64
	ReadRetries         int64
	DataLoss            int64
	Degraded            bool

	// Admission-control outcomes. Shed counts requests rejected before
	// reaching the device; DeadlineExceeded counts queued requests
	// cancelled because their deadline passed before submission. A
	// runner never sees either, so it reports zero; the serve daemon
	// fills them in from its tenant counters. Neither class ever produces
	// a latency sample, so the response-time percentiles above cover
	// admitted requests only.
	Shed             int64
	DeadlineExceeded int64

	// Crash recovery (nonzero only when power-loss injection is on and
	// the caller drove Restart through the device).
	Crashes         int64
	InFlightLost    int64
	RecoveryReads   int64
	RecoveryRecords int64
	RecoveryTime    float64 // seconds of recovery unavailability

	// MetaBytes is the resident size of the device's mapping and
	// retention metadata tables (a geometry property — see
	// ssd.Results.MetaBytes).
	MetaBytes int64

	// Hot-path cache activity over the measured window: the device's
	// level cache and BER surface.
	LevelCache ssd.CacheStats
	BERCache   ssd.CacheStats

	// Tenants carries per-tenant request latency attribution, in the
	// tenant order of the interleaved stream. Empty unless the runner's
	// TrackTenants was called before the replay.
	Tenants []TenantMetrics
}

// Runner executes workloads against one configured system.
type Runner struct {
	opts    Options
	device  *ssd.Device
	ctrl    *accesseval.Controller // non-nil only for FlexLevel
	tenants []*tenantTrack         // per-tenant attribution, nil unless tracking

	// unsized is the stream Prepare was given, kept until the replay's
	// first step sizes the device's read sample for its read pages.
	unsized []trace.Request
}

// stateModel is one block state's BER model with its shift-0
// interference term, which depends on neither P/E nor age and so is
// computed once instead of on every surface miss.
type stateModel struct {
	*noise.BERModel
	c2c0 float64
}

func newStateModel(m *noise.BERModel) stateModel {
	return stateModel{BERModel: m, c2c0: m.C2CBERShifted(0)}
}

// physics is the device physics a runner's BER surface memoizes: the
// baseline cell for normal blocks and a Table 3 reduced-state (NUNMA)
// configuration for reduced ones.
type physics struct {
	normal, reduced stateModel
}

func newPhysics(nunmaName string) (*physics, error) {
	// The reduced pool takes a Table 3 configuration only; nunma.Model
	// would also accept the baseline and basic cells.
	if _, err := nunma.ByName(nunmaName); err != nil {
		return nil, err
	}
	normalModel, err := nunma.Model("baseline")
	if err != nil {
		return nil, err
	}
	reducedModel, err := nunma.Model(nunmaName)
	if err != nil {
		return nil, err
	}
	return &physics{normal: newStateModel(normalModel), reduced: newStateModel(reducedModel)}, nil
}

// ber is the ssd.BERFunc: the BER computed directly from the state's
// model. A nominal point adds the precomputed interference term to its
// retention term in TotalBERShifted's operand order, so the sum is
// bit-identical.
func (p *physics) ber(state ftl.BlockState, pe, ageHours, shiftMv int) float64 {
	m := &p.normal
	if state == ftl.ReducedState {
		m = &p.reduced
	}
	if shiftMv == 0 {
		return m.c2c0 + m.RetentionBERShifted(pe, float64(ageHours), 0)
	}
	return m.TotalBERShifted(pe, float64(ageHours), float64(shiftMv)/1000)
}

// NewRunner builds the system described by opts.
func NewRunner(opts Options) (*Runner, error) {
	if opts.PE < 0 {
		return nil, fmt.Errorf("core: negative P/E point")
	}
	if opts.NUNMAConfig == "" {
		opts.NUNMAConfig = "NUNMA 3"
	}
	phys, err := newPhysics(opts.NUNMAConfig)
	if err != nil {
		return nil, err
	}
	// The surface comes before the device: Baseline's worst-case lookup
	// below goes through the memo the device's reads then use.
	surface := ssd.NewBERSurface(phys.ber, opts.PE, opts.SSD.MaxDataAgeHours)
	opts.SSD.FTL.InitialPE = opts.PE

	var policy baseline.ReadPolicy
	switch opts.System {
	case Baseline:
		// Worst-case fixed sensing: the levels needed at the maximum
		// retention age for this P/E point.
		table, err := sensing.SharedTable(sensing.DefaultRule())
		if err != nil {
			return nil, err
		}
		levels, _ := table.RequiredLevels(surface.BER(ftl.NormalState, opts.PE, opts.SSD.MaxDataAgeHours, 0))
		policy = baseline.FixedWorstCase{Levels: levels}
	case LDPCInSSD, LevelAdjustOnly, FlexLevel:
		policy = baseline.LDPCInSSD{}
	default:
		return nil, fmt.Errorf("core: unknown system %v", opts.System)
	}
	if opts.SSD.Calib {
		// Online threshold calibration implies the adaptive retry policy:
		// the ladder needs the bounded-budget escalation and the downward
		// memory path, whatever the base system is.
		policy = baseline.AdaptiveRetry{}
	}

	device, err := ssd.New(opts.SSD, surface, policy)
	if err != nil {
		return nil, err
	}
	r := &Runner{opts: opts, device: device}
	if opts.System == FlexLevel {
		p := opts.AccessEval
		if p == (accesseval.Params{}) {
			p = accesseval.DefaultParams(opts.SSD.FTL.LogicalPages)
		}
		ctrl, err := accesseval.New(p)
		if err != nil {
			return nil, err
		}
		r.ctrl = ctrl
	}
	return r, nil
}

// Device exposes the underlying simulator (for tests and tooling).
func (r *Runner) Device() *ssd.Device { return r.device }

// writeState returns the pool a user write of lpn targets.
func (r *Runner) writeState(lpn uint64) ftl.BlockState {
	switch r.opts.System {
	case LevelAdjustOnly:
		return ftl.ReducedState
	case FlexLevel:
		if r.ctrl.OnWrite(lpn) {
			return ftl.ReducedState
		}
		return ftl.NormalState
	default:
		return ftl.NormalState
	}
}

// Prepare preconditions the device for a request stream: it derives the
// working set (when 0) from the largest page the stream touches and
// preloads it. After Prepare, the stream can be replayed one request at
// a time with Step — the decomposition the crash-recovery experiments
// use to cut power mid-stream, Restart, and continue. The first Step
// sizes the read sample for the stream's read pages (sizeReadSample).
func (r *Runner) Prepare(reqs []trace.Request, workingSet uint64) error {
	if workingSet == 0 {
		for _, req := range reqs {
			if end := req.LPN + uint64(req.Pages); end > workingSet {
				workingSet = end
			}
		}
	}
	if err := r.preload(workingSet); err != nil {
		return err
	}
	r.unsized = reqs
	return nil
}

// sizeReadSample sizes the device's exact read sample for the read
// pages of the stream Prepare was given, so the replay allocates it once
// instead of regrowing it by doubling. It runs at the replay's first
// step, not in Prepare: counting the pages and the allocation are the
// replay's cost, and set-up should not pay for memory only the replay
// uses.
func (r *Runner) sizeReadSample() {
	reads := 0
	for _, req := range r.unsized {
		if req.Op == trace.Read && req.Pages > 0 {
			reads += req.Pages
		}
	}
	r.device.ReserveReads(reads)
	r.unsized = nil
}

// Step replays one request. A device felled by a power loss (before the
// call or on any page of it) surfaces as an error matching
// ftl.ErrPowerLoss; the caller decides whether that is fatal or the cue
// to run ssd.Device.Restart and resume. A dropped write surfaces as in
// StepAt; Replay counts it and goes on.
func (r *Runner) Step(req trace.Request) error {
	_, err := r.StepAt(req, req.Arrival)
	return err
}

// Finish closes a Prepare/Step sequence and returns the metrics.
func (r *Runner) Finish(name string) Metrics {
	return r.metrics(name)
}

func (r *Runner) preload(pages uint64) error {
	if pages > r.opts.SSD.FTL.LogicalPages {
		pages = r.opts.SSD.FTL.LogicalPages
	}
	// LevelAdjustOnly preloads into the reduced pool; the stock device
	// preload targets normal blocks, so do it manually for that system.
	if r.opts.System != LevelAdjustOnly {
		return r.device.Preload(pages)
	}
	if r.opts.AgedReducedPreload {
		return r.device.PreloadState(pages, ftl.ReducedState)
	}
	for lpn := uint64(0); lpn < pages; lpn++ {
		if _, err := r.device.Write(0, lpn, ftl.ReducedState); err != nil && !ftl.WriteRefused(err) {
			return fmt.Errorf("core: leveladjust-only preload: %w", err)
		}
	}
	r.device.ResetMeasurement()
	return nil
}

func (r *Runner) read(now time.Duration, lpn uint64) (time.Duration, error) {
	resp, levels := r.device.Read(now, lpn)
	if r.ctrl == nil {
		return resp, nil
	}
	dec := r.ctrl.OnRead(lpn, levels)
	for _, victim := range dec.Evict {
		if err := r.device.Migrate(now, victim, ftl.NormalState); err != nil && !ftl.WriteRefused(err) {
			r.ctrl.Remove(lpn) // the admission's own move is never tried
			return resp, fmt.Errorf("core: evict lpn %d: %w", victim, err)
		}
	}
	if dec.Migrate {
		if err := r.device.Migrate(now, lpn, ftl.ReducedState); err != nil {
			// The page stays where it was: take the admission back.
			r.ctrl.Remove(lpn)
			if !ftl.WriteRefused(err) {
				return resp, fmt.Errorf("core: migrate lpn %d: %w", lpn, err)
			}
		}
	}
	return resp, nil
}

func (r *Runner) metrics(workload string) Metrics {
	res := r.device.Results()
	q := res.ReadSample.Percentiles(50, 95, 99)
	m := Metrics{
		Workload:      workload,
		System:        r.opts.System,
		AvgResponse:   res.OverallResp.Mean(),
		AvgRead:       res.ReadResp.Mean(),
		AvgWrite:      res.WriteResp.Mean(),
		P50Read:       q[0],
		P95Read:       q[1],
		P99Read:       q[2],
		SimTime:       r.device.Now().Seconds(),
		UserWrites:    res.FTL.UserPrograms,
		TotalPrograms: res.FTL.TotalPrograms(),
		Erases:        res.FTL.Erases,
		WriteAmp:      res.FTL.WriteAmplification(),
		CapacityLoss:  r.device.FTL().CapacityLoss(),
		ReducedPages:  r.device.FTL().ReducedPages(),
	}
	copy(m.LevelHist[:], res.LevelHist[:])
	m.Unreadable = res.Unreadable
	m.Refreshes = res.Refreshes
	m.RefreshFailures = res.RefreshFailures
	m.Recalibrations = res.Recalibrations
	m.CalibProbes = res.CalibProbes
	m.CalibRescues = res.CalibRescues
	m.CalibReReads = res.CalibReReads
	m.EscalatedRetirements = res.EscalatedRetirements
	m.Reads = res.Reads
	m.RetiredBlocks = res.FTL.RetiredBlocks
	m.ProgramFailures = res.FTL.ProgramFailures
	m.EraseFailures = res.FTL.EraseFailures
	m.GrownBadBlocks = res.FTL.GrownBadBlocks
	m.SparesUsed = res.FTL.SparesUsed
	m.WritesRejected = res.WritesRejected
	m.WriteFailures = res.WriteFailures
	m.TransientReadFaults = res.TransientReadFaults
	m.ReadRetries = res.ReadRetries
	m.DataLoss = res.DataLoss
	m.Degraded = r.device.Degraded()
	m.Crashes = res.Crashes
	m.InFlightLost = res.InFlightLost
	m.RecoveryReads = res.RecoveryReads
	m.RecoveryRecords = res.RecoveryRecords
	m.RecoveryTime = res.RecoveryTime.Seconds()
	m.MetaBytes = res.MetaBytes
	m.LevelCache = res.LevelCache
	m.BERCache = res.BERCache
	if r.ctrl != nil {
		m.Migrations = r.ctrl.Migrations()
		m.Evictions = r.ctrl.Evictions()
	}
	m.Tenants = r.tenantMetrics()
	return m
}

// RelativeLifetime implements the Fig. 7(c) lifetime model: the system's
// total writable volume relative to the reference system's, when the
// scheme (with its extra write amplification) only activates above
// activatePE — the P/E point where extra sensing levels first appear
// (Table 5: 4000) — and blocks retire at endurance cycles.
func RelativeLifetime(refWA, sysWA float64, activatePE, endurance int) float64 {
	if refWA <= 0 || sysWA <= 0 || endurance <= 0 || activatePE < 0 {
		return 0
	}
	if activatePE > endurance {
		activatePE = endurance
	}
	ref := float64(endurance) / refWA
	sys := float64(activatePE)/refWA + float64(endurance-activatePE)/sysWA
	return sys / ref
}
