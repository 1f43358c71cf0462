// Package device implements the end-to-end NAND page data path that the
// rest of FlexLevel reasons about analytically: LDPC-encode a page, map
// the codeword onto cells (Gray code in the normal state, ReduceCode in
// the reduced state), program it into the cell-accurate array, age it,
// then read it back through quantized soft sensing into LLRs and the
// min-sum decoder.
//
// It exists to demonstrate the paper's core premise mechanically rather
// than through the closed-form models: a worn, aged normal page needs
// extra soft sensing levels before the decoder converges, while a
// NUNMA-reduced page decodes with plain hard-decision sensing.
package device

import (
	"fmt"
	"math"

	"flexlevel/internal/ldpc"
	"flexlevel/internal/nand"
	"flexlevel/internal/noise"
	"flexlevel/internal/reducecode"
)

// PageCodec binds one wordline format to an LDPC code.
type PageCodec struct {
	Array *nand.Array
	Code  *ldpc.Code
	State nand.CellState
	// Delta is the spacing of the extra soft-sensing reference voltages.
	Delta float64

	dec *ldpc.Decoder
}

// NewPageCodec validates that the code's length matches the wordline
// capacity in the given state: 2 bits per cell (normal) or 3 bits per
// cell pair (reduced).
func NewPageCodec(a *nand.Array, code *ldpc.Code, state nand.CellState) (*PageCodec, error) {
	capBits := WordlineBits(a.Cols, state)
	if code.N != capBits {
		return nil, fmt.Errorf("device: code length %d != wordline capacity %d bits (%v state, %d cols)",
			code.N, capBits, state, a.Cols)
	}
	return &PageCodec{
		Array: a,
		Code:  code,
		State: state,
		Delta: 0.06,
		dec:   ldpc.NewDecoder(code),
	}, nil
}

// WordlineBits returns the bit capacity of a wordline with cols cells in
// the given state.
func WordlineBits(cols int, state nand.CellState) int {
	if state == nand.Reduced {
		return cols / 2 * reducecode.BitsPerPair
	}
	return cols * 2
}

// WritePage LDPC-encodes data (one bit per byte, length Code.K) and
// programs the codeword onto row. The row must already be in the
// codec's state.
func (pc *PageCodec) WritePage(row int, data []byte) error {
	if err := pc.checkRow(row); err != nil {
		return err
	}
	cw, err := pc.Code.Encode(data)
	if err != nil {
		return err
	}
	if pc.State == nand.Reduced {
		values := make([]uint8, pc.Array.Cols/2)
		for i := range values {
			v := uint8(0)
			for b := 0; b < reducecode.BitsPerPair; b++ {
				v = v<<1 | cw[i*reducecode.BitsPerPair+b]&1
			}
			values[i] = v
		}
		return pc.Array.ProgramRowReduced(row, values)
	}
	levels := make([]uint8, pc.Array.Cols)
	for c := range levels {
		msb := cw[2*c] & 1
		lsb := cw[2*c+1] & 1
		levels[c] = nand.GrayEncode(msb, lsb)
	}
	return pc.Array.ProgramRowNormal(row, levels)
}

// ReadResult reports one soft read.
type ReadResult struct {
	Data       []byte // decoded information bits
	OK         bool   // decoder converged (syndrome clean)
	Iterations int
}

// ReadPage senses row with extraLevels soft sensing levels around every
// read reference, converts the sensed bins to per-bit LLRs and decodes.
func (pc *PageCodec) ReadPage(row int, extraLevels int) (ReadResult, error) {
	if err := pc.checkRow(row); err != nil {
		return ReadResult{}, err
	}
	if extraLevels < 0 {
		extraLevels = 0
	}
	spec := pc.spec()
	sensor := newSoftSensor(spec, extraLevels, pc.Delta)

	llr := make([]float64, pc.Code.N)
	if pc.State == nand.Reduced {
		for pi, cols := range nand.PairColumns(pc.Array.Cols) {
			postI := sensor.levelPosterior(pc.Array.SenseVth(row, cols[0]))
			postII := sensor.levelPosterior(pc.Array.SenseVth(row, cols[1]))
			bits := reduceCodeBitLLRs(postI, postII)
			copy(llr[pi*reducecode.BitsPerPair:], bits[:])
		}
	} else {
		for c := 0; c < pc.Array.Cols; c++ {
			post := sensor.levelPosterior(pc.Array.SenseVth(row, c))
			msb, lsb := mlcBitLLRs(post)
			llr[2*c] = msb
			llr[2*c+1] = lsb
		}
	}
	res, err := pc.dec.Decode(llr)
	if err != nil {
		return ReadResult{}, err
	}
	return ReadResult{Data: res.Data, OK: res.OK, Iterations: res.Iterations}, nil
}

func (pc *PageCodec) spec() *noise.Spec {
	if pc.State == nand.Reduced {
		return pc.Array.ReducedSpec
	}
	return pc.Array.NormalSpec
}

// checkRow refuses a row outside the array or in another state than the
// codec's.
func (pc *PageCodec) checkRow(row int) error {
	state, err := pc.Array.RowState(row)
	if err != nil {
		return fmt.Errorf("device: %w", err)
	}
	if state != pc.State {
		return fmt.Errorf("device: row %d is %v, codec wants %v", row, state, pc.State)
	}
	return nil
}

// softSensor quantizes a Vth into a bin over the spec's references plus
// extra soft levels, and yields per-level posteriors.
type softSensor struct {
	bounds []float64   // ascending sensing reference voltages
	post   [][]float64 // per bin, per level: P(level | bin), normalized
}

// newSoftSensor precomputes bins and posteriors. With extra = 0 the bins
// are exactly the hard-read regions; each extra level adds one more
// reference on alternating sides of every base reference, spaced delta
// apart.
func newSoftSensor(spec *noise.Spec, extra int, delta float64) *softSensor {
	var bounds []float64
	for _, base := range spec.ReadRefs {
		n := extra + 1
		for k := 0; k < n; k++ {
			bounds = append(bounds, base+delta*(float64(k)-float64(n-1)/2))
		}
	}
	// bounds built per base reference in ascending groups; groups do not
	// overlap for realistic deltas, but sort defensively.
	for i := 1; i < len(bounds); i++ {
		for j := i; j > 0 && bounds[j] < bounds[j-1]; j-- {
			bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
		}
	}
	s := &softSensor{bounds: bounds}
	nBins := len(bounds) + 1
	s.post = make([][]float64, nBins)
	for bin := 0; bin < nBins; bin++ {
		lo, hi := math.Inf(-1), math.Inf(1)
		if bin > 0 {
			lo = bounds[bin-1]
		}
		if bin < len(bounds) {
			hi = bounds[bin]
		}
		probs := make([]float64, spec.NumLevels())
		total := 0.0
		for lvl := 0; lvl < spec.NumLevels(); lvl++ {
			g := spec.Programmed(lvl)
			// Widen by a disturb term so posteriors stay calibrated
			// against C2C/retention-shifted voltages.
			g.Sigma = math.Hypot(g.Sigma, noise.DefaultDisturbSigma)
			m := g.CDF(hi) - g.CDF(lo)
			if m < 1e-12 {
				m = 1e-12
			}
			probs[lvl] = m
			total += m
		}
		for lvl := range probs {
			probs[lvl] /= total
		}
		s.post[bin] = probs
	}
	return s
}

// levelPosterior returns P(level | sensed bin of vth).
func (s *softSensor) levelPosterior(vth float64) []float64 {
	bin := 0
	for bin < len(s.bounds) && vth >= s.bounds[bin] {
		bin++
	}
	return s.post[bin]
}

func clampLLR(x float64) float64 {
	const lim = 30
	if x > lim {
		return lim
	}
	if x < -lim {
		return -lim
	}
	return x
}

// mlcBitLLRs converts a 4-level posterior into (MSB, LSB) LLRs under the
// Gray mapping (positive favors bit 0).
func mlcBitLLRs(post []float64) (msb, lsb float64) {
	var m0, m1, l0, l1 float64
	for lvl, p := range post {
		mb, lb := nand.GrayDecode(uint8(lvl))
		if mb == 0 {
			m0 += p
		} else {
			m1 += p
		}
		if lb == 0 {
			l0 += p
		} else {
			l1 += p
		}
	}
	return clampLLR(math.Log(m0 / math.Max(m1, 1e-12))),
		clampLLR(math.Log(l0 / math.Max(l1, 1e-12)))
}

// reduceCodeBitLLRs converts the two cells' 3-level posteriors into the
// pair's three bit LLRs by marginalizing over the 8 codewords.
func reduceCodeBitLLRs(postI, postII []float64) [3]float64 {
	var p0, p1 [3]float64
	for v := uint8(0); v < 8; v++ {
		pair := reducecode.Encode(v)
		pv := postI[pair.I] * postII[pair.II]
		for b := 0; b < 3; b++ {
			if v>>(2-b)&1 == 0 {
				p0[b] += pv
			} else {
				p1[b] += pv
			}
		}
	}
	var out [3]float64
	for b := 0; b < 3; b++ {
		out[b] = clampLLR(math.Log(math.Max(p0[b], 1e-12) / math.Max(p1[b], 1e-12)))
	}
	return out
}
