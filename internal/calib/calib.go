// Package calib is the online per-block read-threshold calibration
// behind the adaptive read-retry ladder (DESIGN.md §13). The
// paper fixes read references at program time (static NUNMA); Peleato
// et al. ("Adaptive Read Thresholds for NAND Flash") and Cai et al.
// ("Read-Voltage Optimization", both in PAPERS.md) show that retuning
// them online from decoder feedback recovers most of the retention /
// wear cliff. A Block holds one block's estimated read-reference shift
// and refines it with a bounded, derivative-free probe search:
// each probe re-senses the page at a candidate shift and reports the
// sensing levels the decoder would need there — an observable quantity,
// never the closed-form optimum — so the search is honest about what a
// real controller can measure.
//
// Determinism: calibration uses no RNG and no wall clock. Shifts are
// quantized to whole millivolts so the same observation sequence always
// produces the same per-block state, which keeps adaptive sweeps
// byte-identical at any engine worker count.
package calib

// The ladder's calibration constants. A recalibration proposes
// shift±step candidates starting at initialStepMv and halves the step
// when neither improves, down to minStepMv; |shift| stays within
// maxShiftMv (real read-retry tables cover a finite reference range);
// one recalibration issues at most maxProbes re-sense probes (the retry
// budget of the ladder's recalibrate stage). Reads needing at least
// lowWater extra sensing levels are calibration candidates, so the
// device retunes a block before it falls off the unreadable cliff.
const (
	initialStepMv = 40
	minStepMv     = 5
	maxShiftMv    = 400
	maxProbes     = 8
	lowWater      = 2
)

// Block is the calibration state of one block. It is controller RAM:
// the device keeps it in its per-block record, zeroes it when the block
// is erased and clears every block's on power loss. The zero value is an
// uncalibrated block at the nominal references. A Block is not safe for
// concurrent use; the experiment engine gives every shard its own device
// (DESIGN.md §9).
type Block struct {
	shiftMv    int16 // current read-reference shift, within ±maxShiftMv
	stepMv     int8  // current probe step (halves as the search converges)
	levels     int8  // sensing levels observed at the last calibration
	calibrated bool  // Calibrate ran since the last erase or power loss
}

// ShiftMv returns the block's current read-reference shift in
// millivolts (0 for an uncalibrated block).
func (c *Block) ShiftMv() int { return int(c.shiftMv) }

// Observe records one read outcome at the block's current calibration:
// the sensing levels the decode needed and whether the page was
// readable at all. It returns true when a background recalibration is
// warranted — the page was unreadable, or it needed at least lowWater
// levels and has drifted past what the last calibration achieved. The
// once-per-drift-stage gate bounds recalibration traffic: a block whose
// levels are stable never re-triggers.
func (c *Block) Observe(levels int, ok bool) bool {
	if !ok {
		return true
	}
	if levels < lowWater {
		return false
	}
	if c.calibrated {
		return levels > int(c.levels)
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
func (c *Block) Calibrate(eval func(shiftMv int) (levels int, ok bool)) (probes, levels int, ok bool) {
	step := int(c.stepMv)
	if !c.calibrated {
		step = initialStepMv
	}
	best := int(c.shiftMv)
	bestLev, bestOK := eval(best)
	probes = 1
	if !bestOK {
		// Rescue sweep: strides of the initial step in the pattern
		// -1, -2, +1, -3, -4, +2, ... — two negative probes per positive
		// one — skipping candidates already clamped to a probed bound.
		origin := best
		probedNeg, probedPos := origin, origin
		for k := 0; !bestOK && probes < maxProbes; k++ {
			g, m := k/3, k%3
			neg := m < 2
			stride := g + 1
			if neg {
				stride = 2*g + m + 1
			}
			cand := origin + stride*initialStepMv
			if neg {
				cand = origin - stride*initialStepMv
			}
			if cand < -maxShiftMv {
				cand = -maxShiftMv
			}
			if cand > maxShiftMv {
				cand = maxShiftMv
			}
			if cand == probedNeg || cand == probedPos {
				if probedNeg == -maxShiftMv && probedPos == maxShiftMv {
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
	for probes < maxProbes && step >= minStepMv {
		improved := false
		for _, cand := range [2]int{best - step, best + step} {
			if cand < -maxShiftMv {
				cand = -maxShiftMv
			}
			if cand > maxShiftMv {
				cand = maxShiftMv
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
			if probes >= maxProbes {
				break
			}
		}
		if !improved {
			step /= 2
		}
	}
	*c = Block{shiftMv: int16(best), stepMv: int8(step), levels: int8(bestLev), calibrated: true}
	return probes, bestLev, bestOK
}
