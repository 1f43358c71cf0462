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
package baseline

// ReadPolicy decides the sensing-level attempts a read performs.
// required is the true number of extra soft sensing levels the page
// needs for successful LDPC decoding. AppendAttempts appends the
// sequence of levels the controller tries, ending with one that is >=
// required, to dst (usually a reused scratch buffer, so steady-state
// reads allocate nothing) and returns the extended slice.
type ReadPolicy interface {
	AppendAttempts(dst []int, block int, required int) []int
}

// FixedWorstCase always senses at a fixed conservative level, escalating
// only when even that is insufficient.
type FixedWorstCase struct {
	Levels int
}

// AppendAttempts implements ReadPolicy.
func (p FixedWorstCase) AppendAttempts(dst []int, _ int, required int) []int {
	if required <= p.Levels {
		return append(dst, p.Levels)
	}
	for l := p.Levels; l <= required; l++ {
		dst = append(dst, l)
	}
	return dst
}

// blockMem is the per-block level memory of the retry policies: slot b
// holds non-negative block b's remembered level, and a block never seen
// (or forgotten) reads 0, hard-decision sensing. It grows on demand, so
// a policy needs no device geometry up front.
type blockMem []int

func (m blockMem) get(block int) int {
	if uint(block) < uint(len(m)) {
		return m[block]
	}
	return 0
}

func (m *blockMem) set(block, level int) {
	if block >= len(*m) {
		*m = append(*m, make([]int, block+1-len(*m))...)
	}
	(*m)[block] = level
}

// forget zeroes a block's slot.
func (m blockMem) forget(block int) {
	if uint(block) < uint(len(m)) {
		m[block] = 0
	}
}

// LDPCInSSD is the progressive read-retry with per-block level memory.
type LDPCInSSD struct {
	mem blockMem
}

// NewLDPCInSSD returns an empty-memory policy.
func NewLDPCInSSD() *LDPCInSSD { return &LDPCInSSD{} }

// AppendAttempts implements ReadPolicy: start at the remembered level
// (0 for an unseen block), escalate until sufficient, and memorize the
// result. Memory only rises — a block's BER only grows with wear and
// retention within an erase cycle.
func (p *LDPCInSSD) AppendAttempts(dst []int, block int, required int) []int {
	start := p.mem.get(block)
	if start >= required {
		return append(dst, start)
	}
	for l := start; l <= required; l++ {
		dst = append(dst, l)
	}
	p.mem.set(block, required)
	return dst
}

// Forget clears a block's memory (called on erase: a fresh block starts
// over at hard-decision sensing).
func (p *LDPCInSSD) Forget(block int) { p.mem.forget(block) }

// Reset drops all remembered levels (called on power loss: the memory
// is controller RAM and does not survive a crash).
func (p *LDPCInSSD) Reset() { clear(p.mem) }

// RetryBudget bounds the attempts of one AdaptiveRetry read: the
// remembered level plus at most three escalations.
const RetryBudget = 4

// AdaptiveRetry is the read policy of the adaptive ladder (DESIGN.md
// §13): per-block level memory like LDPCInSSD, but with a bounded retry
// budget — escalation strides double so a cold block reaches any
// requirement within RetryBudget attempts instead of walking every level —
// and a downward path: the device lowers a block's memory after a
// recalibration reduces what the block needs, so memory tracks the
// calibrated state instead of ratcheting up for the block's lifetime.
type AdaptiveRetry struct {
	mem blockMem
}

// NewAdaptiveRetry returns an empty-memory policy.
func NewAdaptiveRetry() *AdaptiveRetry { return &AdaptiveRetry{} }

// AppendAttempts implements ReadPolicy: start at the remembered
// level; on escalation the stride doubles each retry (0,1,3,7 from a
// cold block) and the final budgeted attempt jumps straight to the
// requirement, so the sequence always ends >= required within
// RetryBudget attempts.
func (p *AdaptiveRetry) AppendAttempts(dst []int, block int, required int) []int {
	start := p.mem.get(block)
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
	p.mem.set(block, required)
	return dst
}

// Lower drops a block's remembered level to at most level. The device
// calls it after a recalibration shrinks the block's requirement — the
// downward path LDPCInSSD lacks.
func (p *AdaptiveRetry) Lower(block, level int) {
	if level < 0 {
		level = 0
	}
	if p.mem.get(block) > level {
		p.mem[block] = level
	}
}

// Forget clears a block's memory (called on erase).
func (p *AdaptiveRetry) Forget(block int) { p.mem.forget(block) }

// Reset drops all remembered levels (called on power loss).
func (p *AdaptiveRetry) Reset() { clear(p.mem) }
