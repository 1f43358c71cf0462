// The full-device lifetime sweep: every other experiment replays a
// bounded trace at one wear point; this one drives a device from the
// paper's rated endurance to end of life. Each cell preloads a
// million-plus-physical-page device (the packed metadata of DESIGN.md
// §16 is what makes that affordable), then advances retention in
// multi-day epochs: a trickle of host overwrites wears blocks through
// GC while the rest of the data ages, a patrol scan measures readability
// (the UBER trajectory), and a scrub/refresh policy — none, fixed-
// interval scrub, or refresh-on-threshold (Cai et al.'s retention
// characterization, PAPERS.md) — decides which pages get rewritten.
// Wear-correlated grown-bad and erase failures retire blocks until the
// spare pool is gone and the device degrades to read-only: the sweep
// reports TBW to read-only, refresh write-amplification, and the UBER
// trajectory for the baseline MLC against the three NUNMA reduced
// configurations.
package exp

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"flexlevel/internal/core"
	"flexlevel/internal/fault"
	"flexlevel/internal/ftl"
	"flexlevel/internal/runner"
	"flexlevel/internal/ssd"
)

// LifetimePolicies are the compared scrub/refresh policies.
const (
	// PolicyNone never rewrites data in the background: retention errors
	// accumulate until host overwrites or GC happen to refresh a page.
	PolicyNone = "none"
	// PolicyScrub rewrites every mapped page on a fixed interval
	// (scrubEveryEpochs), regardless of its health.
	PolicyScrub = "scrub"
	// PolicyThreshold rewrites only the pages whose patrol read needed
	// at least refreshLevels extra sensing levels (or was unreadable).
	PolicyThreshold = "threshold"
)

const (
	// scrubEveryEpochs is PolicyScrub's rewrite interval.
	scrubEveryEpochs = 4
	// refreshLevels is PolicyThreshold's trigger: patrol reads needing
	// at least this many extra sensing levels are rewritten.
	refreshLevels = 6
)

// LifetimePolicies lists the policy grid in sweep order.
func LifetimePolicies() []string {
	return []string{PolicyNone, PolicyScrub, PolicyThreshold}
}

// LifetimeParams sizes the end-of-life simulation. The zero value is
// invalid; start from DefaultLifetime (the full-scale device) or
// DefaultLifetime().Scaled(f) for a proportionally smaller one.
type LifetimeParams struct {
	// Device geometry. The default is one channel of the paper's 256GB
	// array: 4200 blocks of 256 16KB pages (1,075,200 physical pages,
	// 12GB logical at 27% over-provisioning plus the spare pool). The
	// packed metadata layout holds it in ~16MB of tables; the full
	// 16M-page array is a Scaled(16) away.
	PagesPerBlock int
	Blocks        int
	LogicalPages  uint64
	SpareBlocks   int

	// EpochHours is the retention time that passes per epoch; MaxEpochs
	// bounds the sweep for cells that never degrade.
	EpochHours int
	MaxEpochs  int

	// WritesPerEpoch is the uniform-random host overwrite traffic per
	// epoch: it drives GC (and therefore P/E wear and block
	// retirements) while leaving most of the device aging undisturbed.
	WritesPerEpoch int

	// FaultScale multiplies the end-of-life failure curves (grown-bad
	// and erase-failure retirement rates). 1 is the calibrated default;
	// the golden harness scales it down so a tiny device still shows a
	// multi-epoch trajectory before the spare pool empties.
	FaultScale float64
}

// DefaultLifetime returns the full-scale sweep: a 1M+ physical-page
// device aged 5 days per epoch for up to 30 epochs (~5 months past
// rated endurance).
func DefaultLifetime() LifetimeParams {
	return LifetimeParams{
		PagesPerBlock:  256,
		Blocks:         4200,
		LogicalPages:   768 * 1024,
		SpareBlocks:    64,
		EpochHours:     120,
		MaxEpochs:      30,
		WritesPerEpoch: 16384,
		FaultScale:     1,
	}
}

// minLifetimeBlocks is the smallest device Scaled builds.
const minLifetimeBlocks = 44

// Scaled shrinks (or grows) the device geometry and its host traffic by
// f, preserving the over-provisioning ratio and the epoch structure.
func (p LifetimeParams) Scaled(f float64) LifetimeParams {
	op := float64(p.Blocks*p.PagesPerBlock) / float64(p.LogicalPages)
	p.Blocks = int(float64(p.Blocks) * f)
	if p.Blocks < minLifetimeBlocks {
		p.Blocks = minLifetimeBlocks
	}
	p.LogicalPages = uint64(float64(p.Blocks*p.PagesPerBlock) / op)
	p.SpareBlocks = int(float64(p.SpareBlocks) * f)
	if p.SpareBlocks < 2 {
		p.SpareBlocks = 2
	}
	p.WritesPerEpoch = int(float64(p.WritesPerEpoch) * f)
	if p.WritesPerEpoch < 1024 {
		p.WritesPerEpoch = 1024
	}
	return p
}

// MinScale is the smallest factor Scaled honours: below it the block
// count clamps to the same floor, so every smaller factor builds the
// same device.
func (p LifetimeParams) MinScale() float64 {
	return minLifetimeBlocks / float64(p.Blocks)
}

// lifetimeFaults returns the past-rated-endurance retirement curves. A
// block at the rated 6000 cycles gains only a handful of further erases
// over the sweep, so what matters is the probability plateau there, not
// the slope: roughly a third of GC erases detect a grown-bad block and
// a tenth fail outright, emptying the spare pool within the sweep's
// write volume.
func lifetimeFaults(seed int64, scale float64) fault.Config {
	return fault.Config{
		Seed:  seed,
		Erase: fault.RateCurve{Base: 0.08, Amp: 0.3, Scale: 8000, Shape: 6},
		Grown: fault.RateCurve{Base: 0.25, Amp: 0.5, Scale: 8000, Shape: 6},
	}.Scaled(scale)
}

// LifetimeRow is one epoch of one (scheme, policy) cell: the sweep's
// CSV is the full per-epoch trajectory, not just the end state.
type LifetimeRow struct {
	Scheme   string
	Policy   string
	Epoch    int
	AgeHours float64 // simulated time at the end of the epoch

	MeanPE        float64
	SparesLeft    int
	RetiredBlocks int64

	// Patrol outcome: pages scanned, pages unreadable at maximum
	// sensing, and the resulting effective UBER (one uncorrectable
	// event per unreadable 16KB page over all patrolled bits).
	Patrolled  int64
	Unreadable int64
	UBER       float64

	// Refreshes is the cumulative count of policy-driven rewrites;
	// UserWrites/TotalPrograms/WriteAmp the cumulative write economy;
	// TBWBytes the host bytes written so far (the TBW-to-read-only
	// headline once Degraded flips).
	Refreshes     int64
	UserWrites    int64
	TotalPrograms int64
	WriteAmp      float64
	TBWBytes      int64
	Degraded      bool
}

// lifetimeCell is one (scheme, policy) shard of the sweep.
type lifetimeCell struct {
	Scheme AdaptiveScheme
	Policy string
}

// pageBytes is the payload of one 16KB logical page.
const pageBytes = pageBits / 8

// Lifetime runs the end-of-life grid, one engine shard per (scheme,
// policy) cell. Cells share no state — each builds its own device and
// derives its fault and workload RNGs from the shard seed — so the
// sweep is byte-identical for any worker count.
func Lifetime(cfg SimConfig, p LifetimeParams) ([]LifetimeRow, error) {
	var cells []lifetimeCell
	for _, scheme := range AdaptiveSchemes() {
		for _, policy := range LifetimePolicies() {
			cells = append(cells, lifetimeCell{Scheme: scheme, Policy: policy})
		}
	}
	perCell, _, err := runner.Map(cfg.Ctx, cfg.engine("lifetime"), cells,
		func(_ int, c lifetimeCell) string {
			return fmt.Sprintf("scheme=%s/policy=%s", c.Scheme.Name, c.Policy)
		},
		func(s runner.Shard, c lifetimeCell) ([]LifetimeRow, error) {
			rows, err := lifetimeShard(s, c, cfg, p)
			if err != nil {
				return nil, fmt.Errorf("exp: lifetime %s/%s: %w", c.Scheme.Name, c.Policy, err)
			}
			return rows, nil
		})
	if err != nil {
		return nil, err
	}
	return slices.Concat(perCell...), nil
}

// lifetimeShard drives one (scheme, policy) cell from rated endurance
// to end of life (or MaxEpochs) and returns its per-epoch trajectory.
func lifetimeShard(s runner.Shard, c lifetimeCell, cfg SimConfig, p LifetimeParams) ([]LifetimeRow, error) {
	opts := core.DefaultOptions(c.Scheme.System, cfg.PE)
	opts.NUNMAConfig = c.Scheme.NUNMA
	opts.SSD.PackedMeta = true
	opts.SSD.FTL.PagesPerBlock = p.PagesPerBlock
	opts.SSD.FTL.Blocks = p.Blocks
	opts.SSD.FTL.SpareBlocks = p.SpareBlocks
	opts.SSD.Faults = lifetimeFaults(s.Seed, p.FaultScale)

	// The reduced schemes store everything in their reduced pool, whose
	// blocks hold ReducedFactor of a normal block's pages — the paper's
	// LevelAdjust capacity loss. At device scale that loss is sellable
	// capacity: their cells provision a proportionally smaller logical
	// space so every cell starts with the same relative GC slack.
	logical := p.LogicalPages
	state := ftl.NormalState
	if c.Scheme.System == core.LevelAdjustOnly {
		state = ftl.ReducedState
		logical = uint64(float64(logical) * opts.SSD.FTL.ReducedFactor)
	}
	opts.SSD.FTL.LogicalPages = logical
	r, err := core.NewRunner(opts)
	if err != nil {
		return nil, err
	}
	dev := r.Device()

	// Precondition the full logical space with months-old retention
	// ages (the reduced schemes preload into their reduced pool, as in
	// the adaptive sweep).
	if err := dev.PreloadState(logical, state); err != nil {
		return nil, err
	}

	cell := &lifetimeDrive{
		dev: dev, rng: rand.New(rand.NewSource(s.Seed)),
		policy: c.Policy, state: state, logical: logical,
	}
	epochDur := time.Duration(p.EpochHours) * time.Hour
	var rows []LifetimeRow
	for epoch := 1; epoch <= p.MaxEpochs; epoch++ {
		now := time.Duration(epoch) * epochDur
		if err := cell.epoch(epoch, p.WritesPerEpoch, now); err != nil {
			return rows, err
		}
		res := dev.Results()
		row := LifetimeRow{
			Scheme:        c.Scheme.Name,
			Policy:        c.Policy,
			Epoch:         epoch,
			AgeHours:      now.Hours(),
			MeanPE:        dev.FTL().MeanPE(),
			SparesLeft:    dev.FTL().SpareBlocksLeft(),
			RetiredBlocks: res.FTL.RetiredBlocks,
			Patrolled:     cell.patrolled,
			Unreadable:    cell.unreadable,
			Refreshes:     res.FTL.MigrationPrograms,
			UserWrites:    res.FTL.UserPrograms,
			TotalPrograms: res.FTL.TotalPrograms(),
			WriteAmp:      res.FTL.WriteAmplification(),
			TBWBytes:      res.FTL.UserPrograms * pageBytes,
			Degraded:      dev.Degraded(),
		}
		if row.Patrolled > 0 {
			row.UBER = float64(row.Unreadable) / (float64(row.Patrolled) * pageBits)
		}
		rows = append(rows, row)
		if row.Degraded {
			break
		}
	}

	last := rows[len(rows)-1]
	s.AddOps(last.UserWrites + last.Patrolled)
	s.AddCounter("refresh_programs", last.Refreshes)
	s.AddCounter("unreadable", last.Unreadable)
	s.AddCounter("retired_blocks", last.RetiredBlocks)
	s.AddGauge("meta_bytes", float64(dev.MetaBytes()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.AddGauge("heap_alloc_bytes", float64(ms.HeapAlloc))
	return rows, nil
}

// lifetimeDrive is one lifetime cell in motion, with its patrol totals.
type lifetimeDrive struct {
	dev                   *ssd.Device
	rng                   *rand.Rand
	policy                string
	state                 ftl.BlockState // the pool host writes go to
	logical               uint64
	patrolled, unreadable int64
}

// epoch runs one epoch ending at simulated time now: the host write
// trickle, then the patrol scan with the policy's refreshes. A write or
// refresh the device refused (ftl.WriteRefused) loses only itself; once
// the device is degraded, writes and refreshes stop and the patrol
// reads go on (DESIGN.md §8).
func (l *lifetimeDrive) epoch(epoch, writes int, now time.Duration) error {
	dev := l.dev
	// Host traffic: a uniform-random overwrite trickle. It wears blocks
	// through GC while leaving ~98% of the device aging.
	for i := 0; i < writes && !dev.Degraded(); i++ {
		lpn := uint64(l.rng.Int63n(int64(l.logical)))
		if _, err := dev.Write(now, lpn, l.state); err != nil && !ftl.WriteRefused(err) {
			return err
		}
	}

	// Patrol scan: read health of the whole logical space, then let the
	// policy rewrite what it wants to.
	scrub := l.policy == PolicyScrub && epoch%scrubEveryEpochs == 0
	for lpn := uint64(0); lpn < l.logical; lpn++ {
		levels, readable := dev.Patrol(lpn, now)
		l.patrolled++
		if !readable {
			l.unreadable++
		}
		refresh := scrub
		if l.policy == PolicyThreshold {
			refresh = !readable || levels >= refreshLevels
		}
		if !refresh || dev.Degraded() {
			continue
		}
		if _, cur, ok := dev.FTL().Lookup(lpn); ok {
			if err := dev.Migrate(now, lpn, cur); err != nil && !ftl.WriteRefused(err) {
				return err
			}
		}
	}
	return nil
}

// lifetimeEnd indexes the final row of each (scheme, policy) cell,
// preserving first-seen order.
func lifetimeEnd(rows []LifetimeRow) (keys []string, end map[string]LifetimeRow) {
	end = map[string]LifetimeRow{}
	for _, r := range rows {
		key := r.Scheme + "/" + r.Policy
		if _, seen := end[key]; !seen {
			keys = append(keys, key)
		}
		end[key] = r
	}
	return keys, end
}

// PrintLifetime renders the end-of-life summary per cell.
func PrintLifetime(w io.Writer, rows []LifetimeRow) {
	fmt.Fprintln(w, "Lifetime to read-only — end-of-life wear with scrub/refresh policies")
	fmt.Fprintf(w, "  %-14s %-10s %7s %9s %9s %10s %9s %7s %10s\n",
		"scheme", "policy", "epochs", "months", "TBW GB", "refreshes", "ref WA", "spares", "final UBER")
	keys, end := lifetimeEnd(rows)
	for _, key := range keys {
		r := end[key]
		eol := fmt.Sprintf("%d", r.Epoch)
		if !r.Degraded {
			eol = fmt.Sprintf(">%d", r.Epoch)
		}
		refWA := 0.0
		if r.UserWrites > 0 {
			refWA = float64(r.Refreshes) / float64(r.UserWrites)
		}
		fmt.Fprintf(w, "  %-14s %-10s %7s %9.1f %9.2f %10d %9.3f %7d %10.2e\n",
			r.Scheme, r.Policy, eol, r.AgeHours/720, float64(r.TBWBytes)/1e9,
			r.Refreshes, refWA, r.SparesLeft, r.UBER)
	}
}
