package ldpc

import (
	"fmt"
	"math"
)

// Decoder runs normalized min-sum belief propagation over a Code under
// one of two schedules. The flooding schedule (NewDecoder) has every
// check-node update in an iteration read the posteriors from the end of
// the previous iteration. The layered (serial) schedule
// (NewLayeredDecoder) processes checks one at a time and lets their
// updated messages take effect immediately within the iteration,
// roughly halving the iterations needed — the scheduling hardware
// decoders use. A Decoder is NOT safe for concurrent use; create one
// per goroutine.
type Decoder struct {
	code    *Code
	MaxIter int     // BP iteration cap (default 30)
	Alpha   float64 // min-sum normalization factor (default 0.75)

	layered bool // serial schedule; set only by NewLayeredDecoder

	// scratch, laid out per check in checkVars order
	c2v     [][]float64
	post    []float64
	postOld []float64 // flooding: start-of-iteration posteriors
	hard    []byte
}

// NewDecoder allocates a flooding-schedule decoder for code.
func NewDecoder(code *Code) *Decoder {
	d := &Decoder{code: code, MaxIter: 30, Alpha: 0.75}
	d.c2v = make([][]float64, code.M)
	for i := range d.c2v {
		d.c2v[i] = make([]float64, len(code.checkVars[i]))
	}
	d.post = make([]float64, code.N)
	d.postOld = make([]float64, code.N)
	d.hard = make([]byte, code.N)
	return d
}

// NewLayeredDecoder allocates a layered-schedule decoder for code.
func NewLayeredDecoder(code *Code) *Decoder {
	d := NewDecoder(code)
	d.layered = true
	return d
}

// Result reports the outcome of one decode.
type Result struct {
	Bits       []byte // decoded codeword (N bits, one per byte)
	Data       []byte // systematic part (K bits)
	OK         bool   // all parity checks satisfied
	Iterations int    // BP iterations actually run
}

// Decode runs min-sum BP on channel LLRs (positive = bit 0 more likely,
// the usual convention). llr must have length N.
func (d *Decoder) Decode(llr []float64) (Result, error) {
	code := d.code
	if len(llr) != code.N {
		return Result{}, fmt.Errorf("ldpc: llr length %d, want %d", len(llr), code.N)
	}
	// Reset messages and posteriors.
	for i := range d.c2v {
		row := d.c2v[i]
		for j := range row {
			row[j] = 0
		}
	}
	copy(d.post, llr)

	// Check updates read v2c = in[v] - c2v_old. Layered reads the live
	// posteriors; flooding reads the previous iteration's copy, so its
	// updates land in post and only become visible next iteration.
	in := d.post
	if !d.layered {
		in = d.postOld
	}
	iter := 0
	for ; iter < d.MaxIter; iter++ {
		if !d.layered {
			copy(d.postOld, d.post)
		}
		for ci, vars := range code.checkVars {
			row := d.c2v[ci]
			sign := 1.0
			min1, min2 := math.Inf(1), math.Inf(1)
			minIdx := -1
			for j, v := range vars {
				m := in[v] - row[j]
				if m < 0 {
					sign = -sign
					m = -m
				}
				if m < min1 {
					min2 = min1
					min1 = m
					minIdx = j
				} else if m < min2 {
					min2 = m
				}
			}
			for j, v := range vars {
				m := in[v] - row[j]
				s := sign
				if m < 0 {
					s = -s
				}
				mag := min1
				if j == minIdx {
					mag = min2
				}
				newMsg := s * d.Alpha * mag
				// Variable-node update folded in: adjust posterior.
				d.post[v] += newMsg - row[j]
				row[j] = newMsg
			}
		}
		// Hard decision + syndrome.
		for v := 0; v < code.N; v++ {
			if d.post[v] < 0 {
				d.hard[v] = 1
			} else {
				d.hard[v] = 0
			}
		}
		if code.Syndrome(d.hard) {
			iter++
			break
		}
	}
	bits := make([]byte, code.N)
	copy(bits, d.hard)
	return Result{
		Bits:       bits,
		Data:       bits[:code.K],
		OK:         code.Syndrome(bits),
		Iterations: iter,
	}, nil
}

// HardDecoder is a Gallager-B style bit-flipping decoder operating on
// hard channel decisions only — the "hard-decision LDPC" mode used when
// raw BER is low enough that no soft information is needed.
type HardDecoder struct {
	code    *Code
	MaxIter int
}

// NewHardDecoder allocates a bit-flipping decoder for code.
func NewHardDecoder(code *Code) *HardDecoder {
	return &HardDecoder{code: code, MaxIter: 50}
}

// Decode flips, on each iteration, the bits participating in the most
// unsatisfied checks. received must have length N (one bit per byte).
func (h *HardDecoder) Decode(received []byte) (Result, error) {
	code := h.code
	if len(received) != code.N {
		return Result{}, fmt.Errorf("ldpc: received length %d, want %d", len(received), code.N)
	}
	bits := make([]byte, code.N)
	copy(bits, received)
	unsat := make([]int, code.N)
	iter := 0
	for ; iter < h.MaxIter; iter++ {
		// Count unsatisfied checks per variable.
		bad := 0
		for i := range unsat {
			unsat[i] = 0
		}
		for _, vars := range code.checkVars {
			var sum byte
			for _, v := range vars {
				sum ^= bits[v] & 1
			}
			if sum != 0 {
				bad++
				for _, v := range vars {
					unsat[v]++
				}
			}
		}
		if bad == 0 {
			break
		}
		// Flip all variables with the maximal unsatisfied count.
		max := 0
		for _, u := range unsat {
			if u > max {
				max = u
			}
		}
		if max == 0 {
			break
		}
		for v, u := range unsat {
			if u == max {
				bits[v] ^= 1
			}
		}
	}
	return Result{
		Bits:       bits,
		Data:       bits[:code.K],
		OK:         code.Syndrome(bits),
		Iterations: iter,
	}, nil
}

// BSCLLR returns the channel LLR magnitude for a binary symmetric
// channel with crossover probability p: log((1-p)/p).
func BSCLLR(p float64) float64 {
	if p <= 0 {
		return 40 // saturate: effectively certain
	}
	if p >= 0.5 {
		return 0
	}
	return math.Log((1 - p) / p)
}

// HardToLLR maps hard bits to ±mag LLRs (bit 0 -> +mag, bit 1 -> -mag).
func HardToLLR(bits []byte, mag float64) []float64 {
	llr := make([]float64, len(bits))
	for i, b := range bits {
		if b&1 == 1 {
			llr[i] = -mag
		} else {
			llr[i] = mag
		}
	}
	return llr
}
