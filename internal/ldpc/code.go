// Package ldpc implements the soft-decision error-correction substrate
// FlexLevel's evaluation depends on: a systematic repeat-accumulate
// style LDPC code with configurable rate and length, a linear-time
// encoder, a normalized min-sum belief-propagation decoder (soft
// decision) and a Gallager-B bit-flipping decoder (hard decision).
//
// The structure is H = [Hd | Hp]: data columns carry a fixed number of
// randomly placed (degree-balanced) checks, and the parity part is an
// accumulator staircase, so encoding is a single xor pass. This is the
// classic IRA construction used throughout the flash-ECC literature and
// decodes with standard BP.
package ldpc

import (
	"fmt"
	"math/rand"
)

// Params configures code construction.
type Params struct {
	InfoBits   int   // k: data bits per codeword
	ParityBits int   // m: parity bits (= number of checks)
	ColWeight  int   // checks per data column (default 4)
	Seed       int64 // PRNG seed for the data-column placement
}

// Code is a constructed parity-check matrix in sparse form.
type Code struct {
	K int // info bits
	M int // parity bits = checks
	N int // total bits = K + M

	// checkVars[c] lists the variable indices participating in check c
	// (data columns first, then the accumulator columns).
	checkVars [][]int32
	// varChecks[v] lists the check indices variable v participates in.
	varChecks [][]int32
}

// New constructs a code from params. Construction is deterministic for a
// given seed.
func New(p Params) (*Code, error) {
	if p.InfoBits <= 0 {
		return nil, fmt.Errorf("ldpc: non-positive info bits %d", p.InfoBits)
	}
	if p.ParityBits <= 1 {
		return nil, fmt.Errorf("ldpc: need at least 2 parity bits, have %d", p.ParityBits)
	}
	if p.ColWeight <= 1 {
		return nil, fmt.Errorf("ldpc: column weight %d too small", p.ColWeight)
	}
	if p.ColWeight > p.ParityBits {
		return nil, fmt.Errorf("ldpc: column weight %d exceeds parity bits %d", p.ColWeight, p.ParityBits)
	}
	c := &Code{K: p.InfoBits, M: p.ParityBits, N: p.InfoBits + p.ParityBits}
	c.checkVars = make([][]int32, c.M)
	c.varChecks = make([][]int32, c.N)
	rng := rand.New(rand.NewSource(p.Seed))
	rowDeg := make([]int, c.M)

	// Data columns: ColWeight distinct checks each, preferring the
	// lightest-loaded of a few random candidates to balance row degrees.
	for v := 0; v < c.K; v++ {
		used := make(map[int]bool, p.ColWeight)
		for w := 0; w < p.ColWeight; w++ {
			best := -1
			for try := 0; try < 8; try++ {
				cand := rng.Intn(c.M)
				if used[cand] {
					continue
				}
				if best == -1 || rowDeg[cand] < rowDeg[best] {
					best = cand
				}
			}
			if best == -1 { // all candidates were duplicates; scan
				for cand := 0; cand < c.M; cand++ {
					if !used[cand] && (best == -1 || rowDeg[cand] < rowDeg[best]) {
						best = cand
					}
				}
			}
			used[best] = true
			rowDeg[best]++
			c.checkVars[best] = append(c.checkVars[best], int32(v))
			c.varChecks[v] = append(c.varChecks[v], int32(best))
		}
	}

	// Accumulator staircase: check i covers parity i and parity i-1.
	for i := 0; i < c.M; i++ {
		pv := int32(c.K + i)
		c.checkVars[i] = append(c.checkVars[i], pv)
		c.varChecks[pv] = append(c.varChecks[pv], int32(i))
		if i > 0 {
			prev := int32(c.K + i - 1)
			c.checkVars[i] = append(c.checkVars[i], prev)
			c.varChecks[prev] = append(c.varChecks[prev], int32(i))
		}
	}
	return c, nil
}

// TestParams returns a small code with the same 8/9 rate for fast tests
// (k = 1024, m = 128).
func TestParams() Params {
	return Params{InfoBits: 1024, ParityBits: 128, ColWeight: 4, Seed: 7}
}

// Rate returns the code rate k/n.
func (c *Code) Rate() float64 { return float64(c.K) / float64(c.N) }

// Encode computes the codeword for k data bits (one bit per byte, 0/1).
// The result is systematic: codeword[:K] equals data, codeword[K:] holds
// the accumulated parity.
func (c *Code) Encode(data []byte) ([]byte, error) {
	if len(data) != c.K {
		return nil, fmt.Errorf("ldpc: data length %d, want %d", len(data), c.K)
	}
	cw := make([]byte, c.N)
	copy(cw, data)
	var prev byte
	for i := 0; i < c.M; i++ {
		sum := prev
		for _, v := range c.checkVars[i] {
			if int(v) < c.K {
				sum ^= data[v]
			}
		}
		cw[c.K+i] = sum
		prev = sum
	}
	return cw, nil
}

// Syndrome checks whether cw satisfies every parity check.
func (c *Code) Syndrome(cw []byte) bool {
	if len(cw) != c.N {
		return false
	}
	for i := 0; i < c.M; i++ {
		var sum byte
		for _, v := range c.checkVars[i] {
			sum ^= cw[v] & 1
		}
		if sum != 0 {
			return false
		}
	}
	return true
}
