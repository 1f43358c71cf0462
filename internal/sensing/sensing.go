// Package sensing models the soft-decision sensing machinery whose cost
// FlexLevel attacks: how many extra sensing levels an LDPC read needs at
// a given raw BER (paper Table 5's rule) and what each extra level costs in
// read latency (Table 6 timing). Turning sensed Vth values into LLRs
// for the decoder is internal/device's soft sensor.
package sensing

import (
	"fmt"
	"math"
	"sync"
	"time"

	"flexlevel/internal/uber"
)

// MaxExtraLevels is the most soft sensing levels the controller supports
// per read reference. The paper's Table 5 tops out at 6.
const MaxExtraLevels = 7

// LevelRule maps raw BER to the number of extra soft sensing levels the
// LDPC decoder needs to reach the UBER target. The LDPC correction
// capability grows with soft information: with L extra levels the code
// behaves like a code correcting KBase + KStep*L bits of the paper's
// rate-8/9 codeword (calibrated against LDPC-in-SSD [2]; see DESIGN.md).
type LevelRule struct {
	Code   uber.Code
	Target float64
	KBase  int // correctable bits with hard-decision sensing
	KStep  int // additional correctable bits per extra sensing level
}

// DefaultRule returns the calibrated rule for the paper's rate-8/9 code
// over 4KB blocks with the 1e-15 UBER target. KBase and KStep were fit
// so the trigger BER (where the first extra level becomes necessary)
// lands at the paper's 4e-3 and the Table 5 progression is reproduced.
func DefaultRule() LevelRule {
	return LevelRule{
		Code:   uber.PaperCode(),
		Target: uber.TargetUBER,
		KBase:  245,
		KStep:  97,
	}
}

// Validate reports structural problems.
func (r LevelRule) Validate() error {
	if err := r.Code.Validate(); err != nil {
		return err
	}
	if !(r.Target > 0 && r.Target < 1) { // also rejects NaN
		return fmt.Errorf("sensing: target UBER %g out of range", r.Target)
	}
	if r.KBase <= 0 || r.KStep <= 0 {
		return fmt.Errorf("sensing: non-positive KBase/KStep %d/%d", r.KBase, r.KStep)
	}
	return nil
}

// RequiredLevels returns the smallest number of extra sensing levels
// whose correction capability meets the UBER target at raw BER pc.
// ok is false when even MaxExtraLevels is insufficient (the page is
// effectively unreadable and must be refreshed or retired); the level
// count is then clamped to MaxExtraLevels.
func (r LevelRule) RequiredLevels(pc float64) (levels int, ok bool) {
	if pc <= 0 {
		return 0, true
	}
	k, ok := uber.RequiredK(r.Code, pc, r.Target)
	if !ok {
		return MaxExtraLevels, false
	}
	if k <= r.KBase {
		return 0, true
	}
	levels = (k - r.KBase + r.KStep - 1) / r.KStep
	if levels > MaxExtraLevels {
		return MaxExtraLevels, false
	}
	return levels, true
}

// LevelTable is an inverted LevelRule. RequiredLevels on the rule runs
// a binary search whose every probe sums a log-domain binomial tail —
// ~17 tail evaluations per call, which profiling shows is where nearly
// all replay wall-clock goes on level-cache misses. The table instead
// precomputes, once, the highest raw BER each level count can tolerate
// (there are only MaxExtraLevels+1 of them), turning a lookup into at
// most 8 float comparisons.
//
// Lookups agree exactly with the rule: the per-level bisection keeps an
// explicit bracket [okBelow, failAt) — okBelow is a BER proven to meet
// the target, failAt one proven to miss it — and any pc landing inside
// the (≈1e-13 relative) bracket is resolved with the rule's own
// uber.MeetsTarget predicate. Equivalence holds because the binomial
// tail is monotone in both k and pc: the rule's bucketed
// ceil((RequiredK-KBase)/KStep) equals the smallest L whose capability
// KBase+L*KStep meets the target, which is what the table answers.
type LevelTable struct {
	rule    LevelRule
	okBelow [MaxExtraLevels + 1]float64 // highest pc proven to meet the target with L levels
	failAt  [MaxExtraLevels + 1]float64 // lowest pc proven to miss it
}

// NewLevelTable precomputes the BER thresholds for rule.
func NewLevelTable(rule LevelRule) (*LevelTable, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	t := &LevelTable{rule: rule}
	for l := 0; l <= MaxExtraLevels; l++ {
		k := rule.KBase + l*rule.KStep
		lo, hi := 1e-18, 1.0
		if !uber.MeetsTarget(rule.Code, k, lo, rule.Target) {
			// Degenerate rule: even a vanishing BER misses the target.
			// Keep the bracket honest; every lookup falls back.
			t.okBelow[l], t.failAt[l] = 0, lo
			continue
		}
		// Geometric bisection: BER thresholds span decades, so halve the
		// bracket's log-width each step. 90 steps shrink the initial 18
		// decades far below float64 spacing.
		for i := 0; i < 90 && hi-lo > lo*1e-13; i++ {
			mid := math.Sqrt(lo * hi)
			if uber.MeetsTarget(rule.Code, k, mid, rule.Target) {
				lo = mid
			} else {
				hi = mid
			}
		}
		t.okBelow[l], t.failAt[l] = lo, hi
	}
	return t, nil
}

// shared memoizes SharedTable: one immutable table per rule.
var shared = struct {
	sync.Mutex
	tables map[LevelRule]*LevelTable
}{tables: make(map[LevelRule]*LevelTable)}

// SharedTable returns the process-wide LevelTable for rule, building it
// on first use. Safe for concurrent use: a table is immutable and a
// pure function of its (comparable) rule, so every device and runner
// with the same rule shares one instead of paying the ~8 ms build each.
// An invalid rule returns its Validate error and is not cached.
func SharedTable(rule LevelRule) (*LevelTable, error) {
	shared.Lock()
	defer shared.Unlock()
	if t, ok := shared.tables[rule]; ok {
		return t, nil
	}
	t, err := NewLevelTable(rule)
	if err != nil {
		return nil, err
	}
	shared.tables[rule] = t
	return t, nil
}

// RequiredLevels returns exactly what t.Rule().RequiredLevels returns.
func (t *LevelTable) RequiredLevels(pc float64) (levels int, ok bool) {
	if pc <= 0 {
		return 0, true
	}
	for l := 0; l <= MaxExtraLevels; l++ {
		if pc <= t.okBelow[l] {
			return l, true
		}
		if pc < t.failAt[l] &&
			uber.MeetsTarget(t.rule.Code, t.rule.KBase+l*t.rule.KStep, pc, t.rule.Target) {
			return l, true
		}
	}
	return MaxExtraLevels, false
}

// Timing is the NAND operation latency model of paper Table 6, plus the
// cost of soft sensing: each extra sensing level re-senses and re-
// transfers the page, adding one base read latency — which reproduces
// the paper's "7x higher read latency" at six extra levels. The LDPC
// decode pipeline is not charged: the paper's latencies hold sensing
// and transfer only.
type Timing struct {
	Read          time.Duration // base read: sense + transfer
	Program       time.Duration
	Erase         time.Duration
	ExtraPerLevel time.Duration // added per extra soft sensing level
}

// DefaultTiming returns Table 6: read 90µs, program 1000µs, erase 3ms.
// It is the one timing the device charges.
func DefaultTiming() Timing {
	return Timing{
		Read:          90 * time.Microsecond,
		Program:       1000 * time.Microsecond,
		Erase:         3 * time.Millisecond,
		ExtraPerLevel: 90 * time.Microsecond,
	}
}

// ReadLatency returns the latency of a read that needs extraLevels soft
// sensing levels.
func (t Timing) ReadLatency(extraLevels int) time.Duration {
	if extraLevels < 0 {
		extraLevels = 0
	}
	return t.Read + time.Duration(extraLevels)*t.ExtraPerLevel
}

// CalibrationLatency returns the cost of a read-threshold recalibration
// that issued probes re-sense probes: each probe senses the page once at
// a candidate reference shift to observe the levels needed there. Extra soft levels are not charged per probe —
// a probe is a single hard sense; the ladder pays for soft levels only
// on the final re-read it actually serves.
func (t Timing) CalibrationLatency(probes int) time.Duration {
	if probes < 0 {
		probes = 0
	}
	return time.Duration(probes) * t.Read
}
