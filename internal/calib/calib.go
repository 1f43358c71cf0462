// Package calib is the online per-block read-threshold calibration
// tracker behind the adaptive read-retry ladder (DESIGN.md §13). The
// paper fixes read references at program time (static NUNMA); Peleato
// et al. ("Adaptive Read Thresholds for NAND Flash") and Cai et al.
// ("Read-Voltage Optimization", both in PAPERS.md) show that retuning
// them online from decoder feedback recovers most of the retention /
// wear cliff. The tracker keeps one estimated read-reference shift per
// block and refines it with a bounded, derivative-free probe search:
// each probe re-senses the page at a candidate shift and reports the
// sensing levels the decoder would need there — an observable quantity,
// never the closed-form optimum — so the search is honest about what a
// real controller can measure.
//
// Determinism: the tracker uses no RNG and no wall clock. Shifts are
// quantized to whole millivolts so the same observation sequence always
// produces the same per-block state, which keeps adaptive sweeps
// byte-identical at any engine worker count.
package calib

import "fmt"

// Config parameterizes a Tracker. The zero value is disabled.
type Config struct {
	// Enabled turns calibration on.
	Enabled bool

	// StepMv is the initial probe step in millivolts. A recalibration
	// proposes shift±step candidates and halves the step when neither
	// improves, down to MinStepMv. 0 selects DefaultStepMv.
	StepMv int

	// MinStepMv is the convergence floor of the probe step. 0 selects
	// DefaultMinStepMv.
	MinStepMv int

	// MaxShiftMv bounds |shift|: real read-retry tables cover a finite
	// reference range. 0 selects DefaultMaxShiftMv.
	MaxShiftMv int

	// MaxProbes bounds the re-sense probes one recalibration may issue
	// (the retry budget of the ladder's recalibrate stage). 0 selects
	// DefaultMaxProbes.
	MaxProbes int

	// LowWater, when positive, marks reads needing at least that many
	// extra sensing levels as calibration candidates: Observe returns
	// true for them (once per drift stage) so the device can retune the
	// block in the background before it falls off the unreadable cliff.
	LowWater int
}

// Defaults for the zero-valued knobs.
const (
	DefaultStepMv     = 40
	DefaultMinStepMv  = 5
	DefaultMaxShiftMv = 400
	DefaultMaxProbes  = 8
)

// DefaultConfig returns an enabled tracker configuration with the
// default probe budget and step schedule.
func DefaultConfig() Config {
	return Config{
		Enabled:    true,
		StepMv:     DefaultStepMv,
		MinStepMv:  DefaultMinStepMv,
		MaxShiftMv: DefaultMaxShiftMv,
		MaxProbes:  DefaultMaxProbes,
		LowWater:   2,
	}
}

// stepMv returns the effective initial probe step.
func (c Config) stepMv() int {
	if c.StepMv > 0 {
		return c.StepMv
	}
	return DefaultStepMv
}

// minStepMv returns the effective convergence floor.
func (c Config) minStepMv() int {
	if c.MinStepMv > 0 {
		return c.MinStepMv
	}
	return DefaultMinStepMv
}

// maxShiftMv returns the effective shift bound.
func (c Config) maxShiftMv() int {
	if c.MaxShiftMv > 0 {
		return c.MaxShiftMv
	}
	return DefaultMaxShiftMv
}

// maxProbes returns the effective per-recalibration probe budget.
func (c Config) maxProbes() int {
	if c.MaxProbes > 0 {
		return c.MaxProbes
	}
	return DefaultMaxProbes
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.StepMv < 0 || c.MinStepMv < 0 || c.MaxShiftMv < 0 || c.MaxProbes < 0 {
		return fmt.Errorf("calib: negative knob (step %d, min step %d, max shift %d, max probes %d)",
			c.StepMv, c.MinStepMv, c.MaxShiftMv, c.MaxProbes)
	}
	if c.LowWater < 0 {
		return fmt.Errorf("calib: negative low-water level %d", c.LowWater)
	}
	if c.minStepMv() > c.stepMv() {
		return fmt.Errorf("calib: min step %dmV above initial step %dmV", c.minStepMv(), c.stepMv())
	}
	if c.stepMv() > c.maxShiftMv() {
		return fmt.Errorf("calib: initial step %dmV above max shift %dmV", c.stepMv(), c.maxShiftMv())
	}
	return nil
}

// Stats counts tracker activity.
type Stats struct {
	Recalibrations int64 // Calibrate calls
	Probes         int64 // re-sense probes issued across all of them
	Improvements   int64 // recalibrations that lowered the block's levels
	Rescues        int64 // recalibrations that made an unreadable block readable
}

// blockCal is the calibration state of one block.
type blockCal struct {
	shiftMv   int  // current read-reference shift
	stepMv    int  // current probe step (halves as the search converges)
	calLevels int  // sensing levels observed at the last calibration
	calOK     bool // achievability at the last calibration
	seen      bool // a Calibrate has run for this block
}

// Tracker estimates one read-reference shift per block from decode
// outcomes. It is not safe for concurrent use: one tracker belongs to
// one device, and the experiment engine gives every shard its own
// device (DESIGN.md §9).
type Tracker struct {
	cfg    Config
	blocks map[int]*blockCal
	stats  Stats
}

// New builds a Tracker.
func New(cfg Config) (*Tracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{cfg: cfg, blocks: make(map[int]*blockCal)}, nil
}

// Config returns the tracker's configuration.
func (t *Tracker) Config() Config { return t.cfg }

// Stats returns a snapshot of the activity counters.
func (t *Tracker) Stats() Stats { return t.stats }

// TrackedBlocks returns the number of blocks with calibration state.
func (t *Tracker) TrackedBlocks() int { return len(t.blocks) }

// ShiftMv returns the block's current read-reference shift in
// millivolts (0 for an uncalibrated block). It never allocates.
func (t *Tracker) ShiftMv(block int) int {
	if c, ok := t.blocks[block]; ok {
		return c.shiftMv
	}
	return 0
}

// Observe records one read outcome at the block's current calibration:
// the sensing levels the decode needed and whether the page was
// readable at all. It returns true when a background recalibration is
// warranted — the page was unreadable, or it needed at least LowWater
// levels and has drifted past what the last calibration achieved. The
// once-per-drift-stage gate bounds recalibration traffic: a block whose
// levels are stable never re-triggers.
func (t *Tracker) Observe(block, levels int, ok bool) bool {
	if !ok {
		return true
	}
	if t.cfg.LowWater <= 0 || levels < t.cfg.LowWater {
		return false
	}
	if c, calibrated := t.blocks[block]; calibrated && c.seen {
		return levels > c.calLevels
	}
	return true
}

// better orders probe outcomes: readable beats unreadable, then fewer
// sensing levels, then (tie) the smaller |shift| the caller probes
// first wins by never being replaced.
func better(lev int, ok bool, bestLev int, bestOK bool) bool {
	if ok != bestOK {
		return ok
	}
	return lev < bestLev
}

// Calibrate refines the block's read-reference shift from decoder
// feedback in two bounded phases. While the page is unreadable there is
// no gradient to follow (every probe on the plateau needs more than the
// maximum sensing levels), so a rescue sweep walks outward from the
// current shift in whole-step strides — negative direction first, and
// twice as often, because retention drift is downward — like a
// controller stepping through its read-retry table. Once a probe
// decodes, a hill-descent refines it: probe shift±step, move to any
// candidate needing fewer sensing levels, halve the step when neither
// side improves. eval re-senses the page at a candidate shift and
// reports the sensing levels the decoder needs there; every call is one
// charged probe. The search stops at the probe budget or when the step
// has converged below the floor. It returns the probes spent and the
// levels/achievability at the final shift.
func (t *Tracker) Calibrate(block int, eval func(shiftMv int) (levels int, ok bool)) (probes, levels int, ok bool) {
	c := t.blocks[block]
	if c == nil {
		c = &blockCal{stepMv: t.cfg.stepMv()}
		t.blocks[block] = c
	}
	if c.stepMv <= 0 {
		c.stepMv = t.cfg.stepMv()
	}
	t.stats.Recalibrations++
	budget := t.cfg.maxProbes()
	maxShift := t.cfg.maxShiftMv()

	best := c.shiftMv
	bestLev, bestOK := eval(best)
	probes = 1
	entryLev, entryOK := bestLev, bestOK
	if !bestOK {
		// Rescue sweep: strides of the initial step in the pattern
		// -1, -2, +1, -3, -4, +2, ... — two negative probes per positive
		// one — skipping candidates already clamped to a probed bound.
		origin, step := best, t.cfg.stepMv()
		probedNeg, probedPos := origin, origin
		for k := 0; !bestOK && probes < budget; k++ {
			g, m := k/3, k%3
			neg := m < 2
			stride := g + 1
			if neg {
				stride = 2*g + m + 1
			}
			cand := origin + stride*step
			if neg {
				cand = origin - stride*step
			}
			if cand < -maxShift {
				cand = -maxShift
			}
			if cand > maxShift {
				cand = maxShift
			}
			if cand == probedNeg || cand == probedPos {
				if probedNeg == -maxShift && probedPos == maxShift {
					break // the whole range is exhausted
				}
				continue
			}
			if neg {
				probedNeg = cand
			} else {
				probedPos = cand
			}
			lev, candOK := eval(cand)
			probes++
			if better(lev, candOK, bestLev, bestOK) {
				best, bestLev, bestOK = cand, lev, candOK
			}
		}
	}
	for probes < budget && c.stepMv >= t.cfg.minStepMv() {
		improved := false
		for _, cand := range [2]int{best - c.stepMv, best + c.stepMv} {
			if cand < -maxShift {
				cand = -maxShift
			}
			if cand > maxShift {
				cand = maxShift
			}
			if cand == best {
				continue
			}
			lev, candOK := eval(cand)
			probes++
			if better(lev, candOK, bestLev, bestOK) {
				best, bestLev, bestOK = cand, lev, candOK
				improved = true
				break // re-center before probing further
			}
			if probes >= budget {
				break
			}
		}
		if !improved {
			c.stepMv /= 2
		}
	}
	if better(bestLev, bestOK, entryLev, entryOK) {
		t.stats.Improvements++
		if bestOK && !entryOK {
			t.stats.Rescues++
		}
	}
	c.shiftMv = best
	c.calLevels = bestLev
	c.calOK = bestOK
	c.seen = true
	t.stats.Probes += int64(probes)
	return probes, bestLev, bestOK
}

// Forget drops a block's calibration state (called on erase: a freshly
// programmed block starts back at the nominal references).
func (t *Tracker) Forget(block int) {
	delete(t.blocks, block)
}

// Reset drops all calibration state (called on power loss: the tracker
// is controller RAM and does not survive a crash).
func (t *Tracker) Reset() {
	t.blocks = make(map[int]*blockCal)
}
