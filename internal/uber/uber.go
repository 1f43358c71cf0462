// Package uber estimates the uncorrectable bit error rate of an ECC-
// protected NAND page per FlexLevel Eq. 1:
//
//	uber(k) = (1 - Σ_{i=0..k} C(m,i) pc^i (1-pc)^(m-i)) / n
//
// where m is the total codeword length in bits, n the information
// length, pc the raw cell bit error rate and k the number of correctable
// bits. The binomial tail is evaluated in the log domain so codewords of
// tens of kilobits and targets of 1e-15 stay representable.
package uber

import (
	"fmt"
	"math"
	"sync"
)

// Code describes a rate-n/m block code over a data block.
type Code struct {
	InfoBits  int // n: information length in bits
	TotalBits int // m: codeword length in bits
}

// ParityBits returns m - n.
func (c Code) ParityBits() int { return c.TotalBits - c.InfoBits }

// Validate reports structural problems.
func (c Code) Validate() error {
	if c.InfoBits <= 0 {
		return fmt.Errorf("uber: non-positive info length %d", c.InfoBits)
	}
	if c.TotalBits <= c.InfoBits {
		return fmt.Errorf("uber: codeword %d not longer than info %d", c.TotalBits, c.InfoBits)
	}
	return nil
}

// PaperCode returns the code the paper evaluates: a rate-8/9 LDPC code
// over each 4KB data block (n = 32768 info bits, m = 36864 total).
func PaperCode() Code {
	return RateCode(4096, 8, 9)
}

// RateCode builds a Code protecting infoBytes of data at rate num/den.
func RateCode(infoBytes, num, den int) Code {
	n := infoBytes * 8
	return Code{InfoBits: n, TotalBits: n * den / num}
}

// logFactTable caches log(x!) = lgamma(x+1) for x in [0, m]. The tail
// sum evaluates log C(m, i) for thousands of consecutive i per call and
// Lgamma dominated the whole simulator's CPU profile before the table
// (three transcendental evaluations per binomial term); the table turns
// each log C(m, i) into three loads. Entries are exactly the values
// math.Lgamma returns, so every downstream result is bit-identical to
// the untabled computation.
var logFactTable struct {
	sync.RWMutex
	tab []float64
}

// logFact returns the cached log(x!) table covering at least [0, m].
func logFact(m int) []float64 {
	logFactTable.RLock()
	tab := logFactTable.tab
	logFactTable.RUnlock()
	if len(tab) > m {
		return tab
	}
	logFactTable.Lock()
	defer logFactTable.Unlock()
	for x := len(logFactTable.tab); x <= m; x++ {
		v, _ := math.Lgamma(float64(x) + 1)
		logFactTable.tab = append(logFactTable.tab, v)
	}
	return logFactTable.tab
}

// logAdd returns log(exp(a) + exp(b)) stably.
func logAdd(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// logBinomTail returns log P(X > k) for X ~ Binomial(m, p).
func logBinomTail(m, k int, p float64) float64 {
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		if k >= m {
			return math.Inf(-1)
		}
		return 0
	case k >= m:
		return math.Inf(-1)
	case k < 0:
		return 0
	}
	lp := math.Log(p)
	lq := math.Log1p(-p)
	// Sum pmf from i = k+1 to m in the log domain. The pmf decays fast
	// past the mode; stop when terms stop contributing. The lgamma
	// table is fetched once for the whole sum (one lock round-trip
	// instead of one per term).
	mode := int(float64(m+1) * p)
	total := math.Inf(-1)
	tab := logFact(m)
	logPmf := func(i int) float64 {
		return tab[m] - tab[i] - tab[m-i] + float64(i)*lp + float64(m-i)*lq
	}
	start := k + 1
	if start <= mode {
		// Tail includes the mode: probability is large; sum the
		// complementary head instead for accuracy, or simply sum all
		// terms (m is bounded in practice).
		for i := start; i <= m; i++ {
			total = logAdd(total, logPmf(i))
			if total > -1e-12 { // effectively 1
				return math.Min(total, 0)
			}
		}
		return math.Min(total, 0)
	}
	// Past the mode: terms decrease monotonically; stop once negligible.
	for i := start; i <= m; i++ {
		t := logPmf(i)
		total = logAdd(total, t)
		if t < total-60 { // adding < 1e-26 relative
			break
		}
	}
	return math.Min(total, 0)
}

// UBER evaluates Eq. 1: the uncorrectable bit error rate with k
// correctable bits at raw bit error rate pc.
func UBER(c Code, k int, pc float64) float64 {
	tail := logBinomTail(c.TotalBits, k, pc)
	return math.Exp(tail) / float64(c.InfoBits)
}

// RequiredK returns the smallest number of correctable bits k such that
// UBER(c, k, pc) <= target. ok is false when even correcting every bit
// of the codeword cannot reach the target (pc >= 1).
func RequiredK(c Code, pc, target float64) (k int, ok bool) {
	if target <= 0 {
		return 0, false
	}
	if pc <= 0 {
		return 0, true
	}
	logTarget := math.Log(target) + math.Log(float64(c.InfoBits))
	// Binary search on the monotone tail.
	lo, hi := 0, c.TotalBits
	if logBinomTail(c.TotalBits, hi-1, pc) > logTarget {
		// Even k = m-1 insufficient; k = m corrects everything.
		return c.TotalBits, true
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if logBinomTail(c.TotalBits, mid, pc) <= logTarget {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// MeetsTarget reports whether k correctable bits reach the UBER target
// at raw BER pc. This is exactly the acceptance predicate RequiredK
// bisects over, exported so callers holding a candidate k (e.g. an
// inverted threshold table) can test it with a single tail evaluation
// instead of re-running the search.
func MeetsTarget(c Code, k int, pc, target float64) bool {
	if target <= 0 {
		return false
	}
	if pc <= 0 {
		return true
	}
	logTarget := math.Log(target) + math.Log(float64(c.InfoBits))
	return logBinomTail(c.TotalBits, k, pc) <= logTarget
}

// TargetUBER is the reliability target the paper uses for its sensing-
// level estimation (§6.1).
const TargetUBER = 1e-15
