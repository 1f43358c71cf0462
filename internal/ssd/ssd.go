// Package ssd is the SSD timing simulator of the FlexLevel evaluation
// (the paper modified FlashSim [20]; this is an equivalent event-driven
// simulator built from scratch): a page-mapping FTL, a write-back write
// buffer, a single flash channel with FIFO service, Table 6 operation
// latencies, and a per-read soft-sensing cost derived from the device
// noise models via the sensing-level rule.
package ssd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"flexlevel/internal/baseline"
	"flexlevel/internal/calib"
	"flexlevel/internal/fault"
	"flexlevel/internal/ftl"
	"flexlevel/internal/sensing"
	"flexlevel/internal/stats"
)

// Config parameterizes a Device.
type Config struct {
	FTL ftl.Config

	// MaxDataAgeHours is the upper bound of the uniform retention age
	// assigned to preloaded data (the paper evaluates at up to 1 month).
	MaxDataAgeHours float64

	// Channels is the number of independent flash channels; physical
	// blocks stripe across them (block % Channels). 0 or 1 models the
	// single-channel device the calibrated experiments use.
	Channels int

	// RefreshAboveLevels, when positive, rewrites any page whose read
	// needed at least that many extra sensing levels (aggressive
	// scrubbing — the retention-relaxation related work [10] that trades
	// write traffic for read latency). 0 disables.
	RefreshAboveLevels int

	// Faults configures the deterministic fault injector (program/erase
	// failures, grown bad blocks, transient uncorrectable reads). The
	// zero value disables injection entirely and leaves every result
	// bit-identical to a fault-free device.
	Faults fault.Config

	// Calib turns on the adaptive read-retry ladder (DESIGN.md §13):
	// online per-block read-threshold calibration, with reads and
	// calibration probes evaluating the device physics at each block's
	// tracked reference shift, then in-place refresh and block
	// retirement for a page that still cannot decode. Off by default —
	// the paper's evaluation models neither calibration nor refresh.
	Calib bool

	// SampleCap, when positive, bounds the read response-time sample to
	// that many kept observations via a seeded uniform reservoir, so a
	// long-running device (the serve daemon) holds constant memory while
	// percentiles stay unbiased estimates. 0 keeps every observation —
	// the legacy exact-percentile behaviour every golden artifact pins.
	SampleCap int

	// PackedMeta packs the per-page retention-age tracking into one
	// int32 birth second per physical page (4 B) instead of the exact
	// float64 age offset + Duration program time (16 B). Age resolution
	// drops to one second, so a read landing exactly on a sub-second
	// retention boundary may resolve one sensing level differently; off
	// by default because every golden artifact pins the exact layout.
	// The full-device lifetime sweep (DESIGN.md §16) turns it on: its
	// epochs advance in hours, where second quantization is invisible.
	PackedMeta bool

	Seed int64
}

// DefaultReadRetries bounds how many escalating re-reads a transient
// read fault may trigger before the page is declared lost.
const DefaultReadRetries = 3

// timing is the Table 6 operation latency model every device charges.
var timing = sensing.DefaultTiming()

// Write-back buffer: writes complete at bufferLatency as long as the
// flash backlog stays within bufferPages' worth of program time.
const (
	bufferPages   = 64
	bufferLatency = 5 * time.Microsecond
)

// DefaultConfig returns the scaled paper evaluation system.
func DefaultConfig() Config {
	return Config{
		FTL:             ftl.DefaultConfig(),
		MaxDataAgeHours: 720,
		Seed:            1,
	}
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if err := c.FTL.Validate(); err != nil {
		return err
	}
	if c.MaxDataAgeHours < 0 {
		return fmt.Errorf("ssd: negative max data age")
	}
	if c.Channels < 0 {
		return fmt.Errorf("ssd: negative channel count")
	}
	if c.RefreshAboveLevels < 0 {
		return fmt.Errorf("ssd: negative refresh threshold")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// channels normalizes the configured channel count.
func (c Config) channels() int {
	if c.Channels < 1 {
		return 1
	}
	return c.Channels
}

// CacheStats counts the activity of one hot-path memoization layer.
// Hits and misses are per consultation; Resets counts cap-overflow
// compactions (and, for the level cache, crash restarts that drop the
// volatile controller RAM).
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Resets int64 `json:"resets"`
}

// Results holds the simulator's outputs.
type Results struct {
	ReadResp    stats.Accumulator
	WriteResp   stats.Accumulator
	OverallResp stats.Accumulator

	// ReadSample keeps every read response time for percentile queries.
	ReadSample *stats.Sample

	Reads     int64
	LevelHist [sensing.MaxExtraLevels + 1]int64

	// Unreadable counts reads whose BER exceeded even the maximum soft
	// sensing capability; Refreshes counts the in-place rewrites the
	// ladder (or RefreshAboveLevels scrubbing) performed, and
	// RefreshFailures the rewrites the FTL refused (degraded pool, no
	// room) — the trigger of the ladder's retirement stage.
	Unreadable      int64
	Refreshes       int64
	RefreshFailures int64

	// Adaptive read-retry ladder (DESIGN.md §13). Recalibrations counts
	// background read-threshold retunes; CalibProbes the re-sense probes
	// they issued (charged via Timing.CalibrationLatency); CalibRescues
	// the reads that were unreadable at the stale shift and decoded after
	// retuning; CalibReReads the served re-senses at a freshly improved
	// calibration.
	// EscalatedRetirements counts blocks the ladder retired after both
	// recalibration and refresh failed to make them readable.
	Recalibrations       int64
	CalibProbes          int64
	CalibRescues         int64
	CalibReReads         int64
	EscalatedRetirements int64

	// Fault handling and graceful degradation. WritesRejected counts the
	// writes refused in degraded mode (the one that found no free block
	// included) and WriteFailures the writes dropped after exhausting
	// program retries.
	// TransientReadFaults counts injected read faults, ReadRetries the
	// escalating re-reads they triggered, and DataLoss the pages declared
	// unrecoverable after the retry bound.
	WritesRejected      int64
	WriteFailures       int64
	TransientReadFaults int64
	ReadRetries         int64
	DataLoss            int64

	// Crash consistency. Crashes counts power losses; InFlightLost the
	// user writes cut off mid-flight (never acknowledged, so losing them
	// honours the ack contract). RecoveryReads / RecoveryRecords
	// itemize the recovery work: metadata and OOB reads performed and
	// journal records replayed. RecoveryTime is the cumulative device
	// unavailability spent recovering.
	Crashes         int64
	InFlightLost    int64
	RecoveryReads   int64
	RecoveryRecords int64
	RecoveryTime    time.Duration

	// MetaBytes is the resident size of the FTL's mapping/block tables
	// plus the device's retention-age tracking at snapshot time
	// (DESIGN.md §16). A geometry property, not a workload counter:
	// ResetMeasurement does not zero it.
	MetaBytes int64

	// Cache observability (DESIGN.md §11): the per-device level cache
	// (quantized BER -> sensing levels) and the BER surface in front of
	// the device physics. Counters cover the current measurement window.
	LevelCache CacheStats
	BERCache   CacheStats

	FTL ftl.Stats
}

// Device is the simulated SSD.
type Device struct {
	cfg    Config
	ftl    *ftl.FTL
	surf   *BERSurface
	policy baseline.ReadPolicy

	// Per physical page: the retention-age offset (pre-aging) and the
	// simulation time of the last program. With Config.PackedMeta both
	// collapse into birth — the program instant in whole sim seconds
	// (negative for preloaded pre-aged data) — and stay nil.
	ageOffset []float64
	progTime  []time.Duration
	birth     []int32

	chanFree []time.Duration // per-channel FIFO busy-until time

	// levels answers the sensing-level rule on a level-cache miss: the
	// default rule's inverted threshold table, shared by every device and
	// provably equal to the rule's bisection.
	levels *sensing.LevelTable

	res Results
	rng *rand.Rand
	inj *fault.Injector // nil when fault injection is disabled

	// crashed is set on power loss and cleared by a successful Restart.
	crashed bool

	levelCache map[int64]*levelEntry // quantized BER -> required levels
	levelEpoch *levelEpoch           // the generation levelSlots must match

	// attemptsBuf is the reusable scratch the read path hands to the
	// policy's AppendAttempts, so steady-state reads allocate nothing.
	attemptsBuf []int

	// ram is the controller's per-block RAM, one record per physical
	// block: an erase zeroes the block's record and a power loss clears
	// them all.
	ram []blockRAM
}

// blockRAM is the controller RAM the device keeps for one block: the
// retry policy's remembered sensing level and the block's read-threshold
// calibration (DESIGN.md §13). Being RAM, it is not metadata the device
// persists, and MetaBytes does not count it.
type blockRAM struct {
	cal   calib.Block
	level int8 // remembered retry level: the policy's start
}

// retry appends a read's sensing attempts to dst: the policy's sequence
// from the remembered level. The memory then rises to the requirement,
// since a block's BER only grows with wear and retention within an
// erase cycle; only a recalibration brings it down (lower).
func (r *blockRAM) retry(p baseline.ReadPolicy, dst []int, required int) []int {
	dst = p.AppendAttempts(dst, int(r.level), required)
	r.level = max(r.level, int8(required))
	return dst
}

// lower is the retry memory's downward path: a recalibration reduced
// what the block needs to level, and the memory follows it down.
func (r *blockRAM) lower(level int) { r.level = min(r.level, int8(level)) }

// levelCacheCap bounds the level cache; BER is a continuous input, so an
// uncapped map would grow without limit on long runs. On overflow the
// hottest quarter of the entries survives (see compactLevelCache); the
// memoized function is deterministic, so dropped entries only cost
// recomputation.
const levelCacheCap = 8192

// levelKey quantizes a BER to ~1e-5 relative resolution in log space so
// continuous BER values collapse onto a finite key set. The level rule's
// step boundaries are orders of magnitude wider than the quantum, so the
// quantization does not change computed levels in practice. The key is
// an integer: float64 map keys hash poorly in this range and leave the
// -0/+0 ambiguity open (both quantize to key 0 here, but -0 == +0 as
// int64 where they were distinct bit patterns as floats).
func levelKey(ber float64) int64 {
	if ber <= 0 {
		return math.MinInt64
	}
	return int64(math.Round(math.Log(ber) * 1e5))
}

type levelEntry struct {
	levels     int
	achievable bool
	hits       int64
}

// levelSlot is the level-cache answer a dense BER-surface entry keeps,
// so a repeated read of that point finds its sensing levels without
// probing the level cache's map (DESIGN.md §11). The zero value is an
// empty slot. A slot counts as a level-cache hit only while its epoch
// is the device's current one: New, every compaction and every Restart
// start a fresh epoch, so a slot can never answer for an entry the
// cache has since dropped.
type levelSlot struct {
	epoch *levelEpoch
	e     *levelEntry
}

// levelEpoch is the identity of one level-cache generation. It has a
// non-zero size so that every allocation has its own address.
type levelEpoch struct{ _ byte }

// compactLevelCache shrinks a full level cache to its hottest quarter
// instead of dropping the whole map. Survivors are chosen by hit count
// (ties broken by key) so the selection is deterministic; kept entries
// restart their hit counts to avoid fossilizing early winners.
func (d *Device) compactLevelCache() {
	type kv struct {
		key int64
		e   *levelEntry
	}
	entries := make([]kv, 0, len(d.levelCache))
	for k, e := range d.levelCache {
		entries = append(entries, kv{k, e})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].e.hits != entries[j].e.hits {
			return entries[i].e.hits > entries[j].e.hits
		}
		return entries[i].key < entries[j].key
	})
	keep := levelCacheCap / 4
	if keep > len(entries) {
		keep = len(entries)
	}
	d.levelCache = make(map[int64]*levelEntry, levelCacheCap/4)
	for _, it := range entries[:keep] {
		it.e.hits = 0
		d.levelCache[it.key] = it.e
	}
	d.levelEpoch = new(levelEpoch)
	d.res.LevelCache.Resets++
}

// channelOf maps a physical block to its flash channel.
func (d *Device) channelOf(block int) int { return block % len(d.chanFree) }

// charge occupies channel ch FIFO-style: service begins when the
// channel frees (or at now when idle) and the channel stays busy until
// it ends; the completion time is returned.
func (d *Device) charge(ch int, now, service time.Duration) time.Duration {
	start := now
	if d.chanFree[ch] > start {
		start = d.chanFree[ch]
	}
	d.chanFree[ch] = start + service
	return d.chanFree[ch]
}

// newReadSample builds the read response-time sample the config asks
// for: exact and unbounded by default, a seeded reservoir when
// SampleCap bounds memory for long-running serving. The reservoir's
// replacement stream is independent of the device rng, so enabling a
// cap never perturbs fault or wear draws.
func (d *Device) newReadSample() *stats.Sample {
	if d.cfg.SampleCap > 0 {
		return stats.NewReservoir(d.cfg.SampleCap, d.cfg.Seed^0x5eed5a3d1e)
	}
	return stats.NewSample(0)
}

// New builds a Device. surf memoizes the device-physics BER and becomes
// the device's own, its counters zeroed; policy sets the read-retry
// behaviour.
func New(cfg Config, surf *BERSurface, policy baseline.ReadPolicy) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if surf == nil || policy == nil {
		return nil, fmt.Errorf("ssd: nil BER surface or policy")
	}
	f, err := ftl.New(cfg.FTL)
	if err != nil {
		return nil, err
	}
	phys := cfg.FTL.PagesPerBlock * cfg.FTL.Blocks
	d := &Device{
		cfg:        cfg,
		surf:       surf,
		policy:     policy,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		levelCache: make(map[int64]*levelEntry),
		levelEpoch: new(levelEpoch),
	}
	if d.levels, err = sensing.SharedTable(sensing.DefaultRule()); err != nil {
		return nil, err
	}
	if cfg.PackedMeta {
		d.birth = make([]int32, phys)
	} else {
		d.ageOffset = make([]float64, phys)
		d.progTime = make([]time.Duration, phys)
	}
	d.attemptsBuf = make([]int, 0, sensing.MaxExtraLevels+2)
	d.ram = make([]blockRAM, cfg.FTL.Blocks)
	if cfg.Faults.Enabled() {
		inj, err := fault.New(cfg.Faults)
		if err != nil {
			return nil, err
		}
		d.inj = inj
		// Program/erase/grown-bad faults are injected at the FTL, which
		// owns retirement and remapping; read faults are injected here.
		f.Fault = inj.Fails
	}
	d.chanFree = make([]time.Duration, cfg.channels())
	d.res.ReadSample = d.newReadSample()
	surf.stats = CacheStats{}
	d.attach(f)
	return d, nil
}

// attach makes f the device's FTL and points its hooks at the device: a
// GC copy restarts the page's retention age, and an erase zeroes the
// block's controller RAM (a fresh block starts over at hard-decision
// sensing and the nominal references).
func (d *Device) attach(f *ftl.FTL) {
	d.ftl = f
	f.OnRelocate = func(lpn uint64, oldPPN, newPPN int64) {
		// A GC copy reprograms the data: retention age restarts.
		d.resetAge(newPPN, d.Now())
	}
	f.OnErase = func(b int) { d.ram[b] = blockRAM{} }
}

// FTL exposes the underlying mapping layer (read-only use intended).
func (d *Device) FTL() *ftl.FTL { return d.ftl }

// Preload writes the first pages logical pages once (sequentially, into
// the normal pool), assigns each a random retention age in
// [0, MaxDataAgeHours], and resets the statistics so experiments measure
// only the workload. Real traces touch a fraction of the SSD; preloading
// just the footprint keeps the spare-space dynamics faithful.
func (d *Device) Preload(pages uint64) error {
	return d.PreloadState(pages, ftl.NormalState)
}

// PreloadState is Preload into an arbitrary pool: experiments whose
// working set lives entirely in the reduced (LevelAdjust) pool use it
// to precondition with realistic retention ages, which the legacy
// zero-age write loop those experiments used before cannot model.
func (d *Device) PreloadState(pages uint64, state ftl.BlockState) error {
	if pages > d.cfg.FTL.LogicalPages {
		return fmt.Errorf("ssd: preload of %d pages exceeds logical space %d",
			pages, d.cfg.FTL.LogicalPages)
	}
	for lpn := uint64(0); lpn < pages; lpn++ {
		ppn, _, err := d.ftl.Write(lpn, state)
		if err != nil {
			return fmt.Errorf("ssd: preload: %w", err)
		}
		d.preAge(ppn, d.rng.Float64()*d.cfg.MaxDataAgeHours)
	}
	d.ResetMeasurement()
	return nil
}

// ResetMeasurement zeroes the clock, the response-time accumulators and
// the FTL and cache counters. Callers that precondition the device
// through the regular Write path (instead of Preload) use it to start a
// clean measured phase.
func (d *Device) ResetMeasurement() {
	for i := range d.chanFree {
		d.chanFree[i] = 0
	}
	d.res = Results{ReadSample: d.newReadSample()}
	d.surf.stats = CacheStats{}
	d.ftl.ResetStats()
}

// ReserveReads makes room in the exact read response-time sample for n
// more reads (stats.Sample.Grow), so a replay whose length is known up
// front allocates it once instead of regrowing it. A bounded
// (SampleCap) reservoir already holds its cap and is left as it is.
func (d *Device) ReserveReads(n int) { d.res.ReadSample.Grow(n) }

// resetAge records a fresh program of ppn at sim time now: its
// retention age restarts from zero.
func (d *Device) resetAge(ppn int64, now time.Duration) {
	if d.birth != nil {
		d.birth[ppn] = int32(now / time.Second)
		return
	}
	d.ageOffset[ppn] = 0
	d.progTime[ppn] = now
}

// preAge assigns ppn a pre-existing retention age (preload), with the
// program anchored at sim time zero.
func (d *Device) preAge(ppn int64, hours float64) {
	if d.birth != nil {
		d.birth[ppn] = -int32(math.Round(hours * 3600))
		return
	}
	d.ageOffset[ppn] = hours
	d.progTime[ppn] = 0
}

// ageHours returns the retention age of a physical page at sim time now.
func (d *Device) ageHours(ppn int64, now time.Duration) float64 {
	if d.birth != nil {
		sec := int64(now/time.Second) - int64(d.birth[ppn])
		if sec < 0 {
			sec = 0
		}
		return float64(sec) / 3600
	}
	elapsed := now - d.progTime[ppn]
	if elapsed < 0 {
		elapsed = 0
	}
	return d.ageOffset[ppn] + elapsed.Hours()
}

// Patrol evaluates lpn's current read health without serving a read:
// the sensing levels a read would need right now, and whether the page
// is readable at all within the maximum sensing capability. Unmapped
// pages report (0, true). It charges no flash time and records no
// response sample — the lifetime sweep's scrub/refresh policies use it
// as the media scan behind their refresh decisions.
func (d *Device) Patrol(lpn uint64, now time.Duration) (levels int, readable bool) {
	ppn, state, ok := d.ftl.Lookup(lpn)
	if !ok {
		return 0, true
	}
	return d.requiredLevelsAt(ppn, state, now)
}

// requiredLevelsAt is Patrol for an already-resolved mapping, so
// the read path pays one FTL lookup instead of two. With calibration
// enabled the page is evaluated at its block's current reference shift.
func (d *Device) requiredLevelsAt(ppn int64, state ftl.BlockState, now time.Duration) (int, bool) {
	block := int(ppn) / d.cfg.FTL.PagesPerBlock
	pe := d.ftl.BlockPE(block)
	return d.levelsForBER(d.pageBER(state, pe, d.ageHours(ppn, now), block))
}

// pageBER looks a page's raw BER, level key and level slot up on the
// BER surface at its block's calibrated reference shift, which stays 0,
// the nominal references, while calibration is off.
func (d *Device) pageBER(state ftl.BlockState, pe int, age float64, block int) (float64, int64, *levelSlot) {
	return d.surf.lookup(state, pe, age, d.ram[block].cal.ShiftMv())
}

// levelsForBER answers the sensing-level rule for a raw BER through the
// level cache, under the surface's key for it (levelKey(ber)). It is the
// shared back end of the read path and of calibration probes (which
// feed it shifted BERs). A slot of the current epoch holds the cache's
// entry for key, so it answers as a map hit would, counters included;
// any other slot is refilled from the map path.
func (d *Device) levelsForBER(ber float64, key int64, slot *levelSlot) (int, bool) {
	if slot != nil && slot.epoch == d.levelEpoch {
		e := slot.e
		e.hits++
		d.res.LevelCache.Hits++
		return e.levels, e.achievable
	}
	e, ok := d.levelCache[key]
	if ok {
		e.hits++
		d.res.LevelCache.Hits++
	} else {
		d.res.LevelCache.Misses++
		levels, achievable := d.levels.RequiredLevels(ber)
		if len(d.levelCache) >= levelCacheCap {
			d.compactLevelCache()
		}
		e = &levelEntry{levels: levels, achievable: achievable}
		d.levelCache[key] = e
	}
	if slot != nil {
		*slot = levelSlot{epoch: d.levelEpoch, e: e}
	}
	return e.levels, e.achievable
}

// Read simulates a one-page read arriving at time now. It returns the
// response time and the sensing level that finally succeeded.
//
// With calibration enabled (Config.Calib) the read runs the adaptive
// ladder: sense at the block's calibrated references, and when the
// decode outcome warrants it (unreadable, or drifted past the last
// calibration) recalibrate the block's read thresholds, re-serve the
// read at the retuned references, and — if the block still cannot
// decode — escalate through in-place refresh to block retirement. The
// FTL's degraded read-only mode is the ladder's terminal state.
func (d *Device) Read(now time.Duration, lpn uint64) (time.Duration, int) {
	if d.crashed {
		return 0, 0 // powered off: no service until Restart
	}
	required := 0
	achievable := true
	block := 0
	var ppn int64
	var state ftl.BlockState
	mapped := false
	if p, st, ok := d.ftl.Lookup(lpn); ok {
		required, achievable = d.requiredLevelsAt(p, st, now)
		block = int(p) / d.cfg.FTL.PagesPerBlock
		ppn = p
		state = st
		mapped = true
	}
	// An unmapped read senses at block 0's remembered level; it never
	// raises it (required is 0).
	ram := &d.ram[block]
	attempts := ram.retry(d.policy, d.attemptsBuf[:0], required)
	if len(attempts) == 0 {
		// Defensive fallback for a broken policy: a single hard-decision
		// attempt instead of an index panic below.
		attempts = append(attempts, 0)
	}
	if d.inj != nil && mapped {
		// Transient uncorrectable reads: the decode fails despite the
		// sensed levels, and the controller escalates — re-read at one
		// more sensing level per retry, charged like any other attempt.
		// A page still failing at the retry bound is declared lost.
		pe := d.ftl.BlockPE(block)
		retries := 0
		for d.inj.Fails(fault.Read, block, pe) {
			d.res.TransientReadFaults++
			if retries >= DefaultReadRetries {
				d.res.DataLoss++
				break
			}
			retries++
			level := required + retries
			if level > sensing.MaxExtraLevels {
				level = sensing.MaxExtraLevels
			}
			attempts = append(attempts, level)
		}
		d.res.ReadRetries += int64(retries)
	}
	var service time.Duration
	for _, l := range attempts {
		service += timing.ReadLatency(l)
	}
	final := attempts[len(attempts)-1]
	if final > sensing.MaxExtraLevels {
		final = sensing.MaxExtraLevels
	}

	// Ladder stage 2 — recalibrate: when the decode outcome says the
	// block's thresholds are stale, retune them from decoder feedback
	// and, if that lowered (or restored) the requirement, serve the read
	// with one final re-sense at the fresh calibration.
	if d.cfg.Calib && mapped && ram.cal.Observe(required, achievable) {
		pe := d.ftl.BlockPE(block)
		age := d.ageHours(ppn, now)
		probes, lev, ok := ram.cal.Calibrate(func(shiftMv int) (int, bool) {
			return d.levelsForBER(d.surf.lookup(state, pe, age, shiftMv))
		})
		d.res.Recalibrations++
		d.res.CalibProbes += int64(probes)
		service += timing.CalibrationLatency(probes)
		if ok && (!achievable || lev < required) {
			service += timing.ReadLatency(lev)
			d.res.CalibReReads++
			if !achievable {
				d.res.CalibRescues++
			}
			required, achievable = lev, ok
			final = lev
			ram.lower(lev)
		}
	}

	ch := d.channelOf(block)
	resp := d.charge(ch, now, service) - now

	d.res.Reads++
	d.res.LevelHist[final]++
	sec := resp.Seconds()
	d.res.ReadResp.Add(sec)
	d.res.ReadSample.Add(sec)
	d.res.OverallResp.Add(sec)

	if !achievable && mapped {
		d.res.Unreadable++
		if d.cfg.Calib {
			// Ladder stage 3 — refresh: rewrite the page in place so its
			// age (and BER) restart. Charged as background work. A failed
			// rewrite escalates to stage 4, block retirement, instead of
			// being dropped silently: data on a block that can neither
			// decode nor rewrite must move before it decays further.
			if err := d.Migrate(now, lpn, state); err == nil {
				d.res.Refreshes++
			} else if !errors.Is(err, ftl.ErrPowerLoss) {
				d.res.RefreshFailures++
				d.escalateRetire(now, block)
			}
		}
	} else if mapped && d.cfg.RefreshAboveLevels > 0 && required >= d.cfg.RefreshAboveLevels {
		// Aggressive scrubbing: any soft-sensed page is rewritten so
		// its next read is a hard-decision read. A refused scrub is not
		// an emergency (the page still decodes) but is no longer silent.
		if err := d.Migrate(now, lpn, state); err == nil {
			d.res.Refreshes++
		} else if !errors.Is(err, ftl.ErrPowerLoss) {
			d.res.RefreshFailures++
		}
	}
	// Keep whatever capacity the retry path grew for the next read.
	d.attemptsBuf = attempts[:0]
	return resp, final
}

// escalateRetire is the ladder's stage 4: take the block out of service
// through the FTL's retirement path (valid pages relocate, a spare
// backfills) and charge the relocation work. In degraded mode the FTL
// refuses new programs, so retirement cannot relocate — the device
// stays in stage 5, degraded read-only, and the data remains readable
// where it is.
func (d *Device) escalateRetire(now time.Duration, block int) {
	if d.ftl.Degraded() || d.ftl.BadBlock(block) {
		return
	}
	ops, err := d.ftl.RetireBlock(block)
	d.charge(d.channelOf(block), now, d.opsTime(ops))
	if err == nil {
		d.res.EscalatedRetirements++
		return
	}
	if errors.Is(err, ftl.ErrPowerLoss) {
		d.Crash()
	}
}

// opsTime converts FTL operation counts into flash busy time.
func (d *Device) opsTime(ops ftl.OpCount) time.Duration {
	t := time.Duration(ops.Programs+ops.MetaPrograms) * timing.Program
	t += time.Duration(ops.CopyReads) * timing.Read
	t += time.Duration(ops.Erases) * timing.Erase
	return t
}

// Write simulates a one-page write arriving at now, directed at the
// given pool. Write-back semantics: the request completes at buffer
// latency unless the flash backlog exceeds the buffer's capacity. A
// write the device refused or dropped (ftl.WriteRefused) is counted and
// still returns its buffer latency, together with the error: the page
// keeps its old data. A replay goes on; a service must not ack it.
func (d *Device) Write(now time.Duration, lpn uint64, state ftl.BlockState) (time.Duration, error) {
	if d.crashed {
		return 0, ftl.ErrPowerLoss
	}
	ppn, ops, err := d.ftl.Write(lpn, state)
	if err != nil {
		switch {
		case errors.Is(err, ftl.ErrPowerLoss):
			// Power died before the write was acknowledged: the request
			// is legitimately lost (in-flight, never acked) and the
			// device is down until Restart.
			d.res.InFlightLost++
			d.Crash()
			return 0, err
		case errors.Is(err, ftl.ErrDegraded):
			// Degraded mode, or the write that found no free block and
			// latched it: the write is refused at buffer latency, the
			// previously stored data stays intact and readable.
			d.res.WritesRejected++
			d.recordWrite(bufferLatency)
			return bufferLatency, err
		case errors.Is(err, ftl.ErrWriteFailed):
			// Program retries exhausted: the write is dropped (its old
			// mapping survives), but the failed attempts and relocations
			// still occupied the flash. The cost goes to the channel
			// owning the block that finally failed (the FTL attributes
			// it via ftl.BlockError); only an unattributed failure falls
			// back to channel 0.
			d.res.WriteFailures++
			ch := 0
			if b, ok := ftl.FailedBlock(err); ok {
				ch = d.channelOf(b)
			}
			d.charge(ch, now, d.opsTime(ops))
			d.recordWrite(bufferLatency)
			return bufferLatency, err
		}
		return 0, err
	}
	d.resetAge(ppn, now)

	ch := d.channelOf(int(ppn) / d.cfg.FTL.PagesPerBlock)
	d.charge(ch, now, d.opsTime(ops))

	backlog := d.chanFree[ch] - now
	allowance := bufferPages * timing.Program
	resp := bufferLatency
	if backlog > allowance {
		resp += backlog - allowance
	}
	d.recordWrite(resp)
	return resp, nil
}

// recordWrite adds one write's response time to the write and overall
// statistics.
func (d *Device) recordWrite(resp time.Duration) {
	sec := resp.Seconds()
	d.res.WriteResp.Add(sec)
	d.res.OverallResp.Add(sec)
}

// Migrate rewrites lpn into the given pool in the background (AccessEval
// data conversion): it charges flash busy time but produces no user-
// visible response-time sample.
func (d *Device) Migrate(now time.Duration, lpn uint64, state ftl.BlockState) error {
	if d.crashed {
		return ftl.ErrPowerLoss
	}
	ppn, ops, err := d.ftl.Migrate(lpn, state)
	if err != nil {
		if errors.Is(err, ftl.ErrPowerLoss) {
			// Background rewrite cut off: no user data is lost (a torn
			// migration keeps the old mapping), but the device is down.
			d.Crash()
		}
		return err
	}
	d.resetAge(ppn, now)
	ch := d.channelOf(int(ppn) / d.cfg.FTL.PagesPerBlock)
	d.charge(ch, now, d.opsTime(ops))
	return nil
}

// Crashed reports whether the device is down after a power loss and
// waiting for Restart.
func (d *Device) Crashed() bool { return d.crashed }

// Crash records a sudden power loss: everything volatile — the write
// buffer, the channel queues, the per-block controller RAM, the level
// cache — is gone, and the device refuses service until Restart.
// The FTL's durable media image (OOB, journal, checkpoint) survives.
// Called automatically when an injected PowerLoss fault surfaces from
// the FTL; callable directly to script a crash at an arbitrary point.
func (d *Device) Crash() {
	if d.crashed {
		return
	}
	d.crashed = true
	d.res.Crashes++
}

// Restart powers the device back on at time now: it reruns crash
// recovery from the durable media image (checkpoint load, journal
// replay, full OOB scan), swaps in the recovered FTL with the device's
// hooks rewired, drops all volatile caches, and charges the recovery
// work as device-wide busy time — every channel is unavailable until
// recovery completes. A second power cut during recovery (injected via
// the fault script) leaves the device crashed; Restart can simply be
// called again.
func (d *Device) Restart(now time.Duration) (ftl.RecoveryReport, error) {
	if !d.crashed {
		return ftl.RecoveryReport{}, fmt.Errorf("ssd: restart of a running device")
	}
	m := d.ftl.Media()
	if m == nil {
		return ftl.RecoveryReport{}, fmt.Errorf("ssd: restart without a journaled FTL (enable Config.FTL.Journal)")
	}
	var faultFn func(op fault.Op, block, pe int) bool
	if d.inj != nil {
		faultFn = d.inj.Fails
	}
	f, rep, err := ftl.Recover(d.cfg.FTL, m, faultFn)
	if err != nil {
		return rep, err
	}
	f.Inherit(d.ftl)
	d.attach(f)
	// Controller RAM did not survive: the level cache and every block's
	// retry memory and calibration start cold. The BER surface stays: it
	// memoizes physics, which a power loss does not change, and the new
	// epoch disowns its level slots.
	d.levelCache = make(map[int64]*levelEntry)
	d.levelEpoch = new(levelEpoch)
	d.res.LevelCache.Resets++
	clear(d.ram)
	// Recovery serializes the whole device: reads dominate (checkpoint
	// pages, journal frames, the OOB scan), plus the fresh checkpoint's
	// programs. Whatever was queued on the channels died with the power.
	rt := time.Duration(rep.TotalReads())*timing.Read +
		time.Duration(rep.CheckpointWritePages)*timing.Program
	for i := range d.chanFree {
		d.chanFree[i] = now + rt
	}
	d.res.RecoveryReads += int64(rep.TotalReads())
	d.res.RecoveryRecords += int64(rep.RecordsReplayed)
	d.res.RecoveryTime += rt
	d.crashed = false
	return rep, nil
}

// MetaBytes reports the resident bytes of the device's mapping and
// retention metadata: the FTL's packed tables plus the per-page age
// tracking (DESIGN.md §16).
func (d *Device) MetaBytes() int64 {
	b := d.ftl.MetaBytes()
	if d.birth != nil {
		return b + 4*int64(len(d.birth))
	}
	return b + 8*int64(len(d.ageOffset)) + 8*int64(len(d.progTime))
}

// Results returns a snapshot of the accumulated metrics.
func (d *Device) Results() Results {
	r := d.res
	r.MetaBytes = d.MetaBytes()
	r.FTL = d.ftl.Stats()
	r.BERCache = d.surf.stats
	return r
}

// Degraded reports whether the device has entered degraded mode: reads
// are still served but new writes are rejected.
func (d *Device) Degraded() bool { return d.ftl.Degraded() }

// Now returns the time at which every flash channel is idle — a
// convenient "current device time" for callers scheduling background
// work.
func (d *Device) Now() time.Duration {
	var max time.Duration
	for _, t := range d.chanFree {
		if t > max {
			max = t
		}
	}
	return max
}
