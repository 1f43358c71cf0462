// Package baseline implements the read-retry policies of the systems
// FlexLevel is compared against:
//
//   - FixedWorstCase — the no-scheme baseline: a controller without
//     fine-grained retry that senses every read at the worst-case soft
//     level for the device's age.
//   - LDPCInSSD — Zhao et al., FAST'13 [2]: progressive sensing with
//     per-block memory; reads start at the block's remembered level and
//     escalate one level per retry until decoding succeeds, then the
//     level is memorized.
//
// The policies are stateless values: the remembered level is controller
// RAM, kept and updated by the device in its per-block record
// (DESIGN.md §11).
package baseline

// ReadPolicy decides the sensing-level attempts a read performs.
// start is the level the device remembers for the read's block (0,
// hard-decision sensing, until a read after the block's last erase or
// power loss raises it) and required the true number of extra soft
// sensing levels the page needs for successful LDPC decoding.
// AppendAttempts appends the sequence of levels the controller tries,
// ending with one that is >= required, to dst (usually a reused scratch
// buffer, so steady-state reads allocate nothing) and returns the
// extended slice.
type ReadPolicy interface {
	AppendAttempts(dst []int, start, required int) []int
}

// FixedWorstCase always senses at a fixed conservative level, escalating
// only when even that is insufficient. It ignores the remembered level.
type FixedWorstCase struct {
	Levels int
}

// AppendAttempts implements ReadPolicy.
func (p FixedWorstCase) AppendAttempts(dst []int, _, required int) []int {
	if required <= p.Levels {
		return append(dst, p.Levels)
	}
	for l := p.Levels; l <= required; l++ {
		dst = append(dst, l)
	}
	return dst
}

// LDPCInSSD is the progressive read-retry with per-block level memory.
type LDPCInSSD struct{}

// AppendAttempts implements ReadPolicy: start at the remembered level
// and escalate one level per retry until sufficient.
func (LDPCInSSD) AppendAttempts(dst []int, start, required int) []int {
	if start >= required {
		return append(dst, start)
	}
	for l := start; l <= required; l++ {
		dst = append(dst, l)
	}
	return dst
}

// RetryBudget bounds the attempts of one AdaptiveRetry read: the
// remembered level plus at most three escalations.
const RetryBudget = 4

// AdaptiveRetry is the read policy of the adaptive ladder (DESIGN.md
// §13): per-block level memory like LDPCInSSD, but with a bounded retry
// budget — escalation strides double so a cold block reaches any
// requirement within RetryBudget attempts instead of walking every
// level. Its memory also has a downward path, which the device applies:
// a recalibration that reduces what a block needs lowers the block's
// level, so memory tracks the calibrated state instead of ratcheting up
// for the block's lifetime.
type AdaptiveRetry struct{}

// AppendAttempts implements ReadPolicy: start at the remembered
// level; on escalation the stride doubles each retry (0,1,3,7 from a
// cold block) and the final budgeted attempt jumps straight to the
// requirement, so the sequence always ends >= required within
// RetryBudget attempts.
func (AdaptiveRetry) AppendAttempts(dst []int, start, required int) []int {
	if start >= required {
		return append(dst, start)
	}
	dst = append(dst, start)
	n, stride, lvl := 1, 1, start
	for lvl < required {
		if n >= RetryBudget-1 || lvl+stride >= required {
			lvl = required
		} else {
			lvl += stride
			stride *= 2
		}
		dst = append(dst, lvl)
		n++
	}
	return dst
}
