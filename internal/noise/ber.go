package noise

import (
	"fmt"
	"math/rand"
)

// Encoding captures how logical bits map onto cell levels for BER
// accounting: how often each level is occupied under uniform random
// data, how many information bits each cell carries, and how many bit
// errors a single one-level misread causes (1 for Gray code and for the
// paper's ReduceCode — that adjacency property is the point of both).
type Encoding struct {
	Name                   string
	Occupancy              []float64
	BitsPerCell            float64
	BitErrorsPerLevelError float64
}

// Validate reports structural problems in the encoding.
func (e Encoding) Validate() error {
	if len(e.Occupancy) == 0 {
		return fmt.Errorf("noise: encoding %q has no occupancy", e.Name)
	}
	sum := 0.0
	for i, w := range e.Occupancy {
		if w < 0 {
			return fmt.Errorf("noise: encoding %q occupancy[%d] negative", e.Name, i)
		}
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("noise: encoding %q occupancy sums to %g, want 1", e.Name, sum)
	}
	if e.BitsPerCell <= 0 {
		return fmt.Errorf("noise: encoding %q has non-positive bits per cell", e.Name)
	}
	return nil
}

// MLCGray is the standard 2-bit MLC Gray mapping over 4 levels.
func MLCGray() Encoding {
	return Encoding{
		Name:                   "mlc-gray",
		Occupancy:              []float64{0.25, 0.25, 0.25, 0.25},
		BitsPerCell:            2,
		BitErrorsPerLevelError: 1,
	}
}

// SLCMode is the industry-standard robustness fallback the encoding
// ablation compares against: one bit per cell over two levels (pair
// with a two-level spec such as nunma.SLCModeSpec) at maximal margins —
// and 50% capacity loss.
func SLCMode() Encoding {
	return Encoding{
		Name:                   "slc-mode",
		Occupancy:              []float64{0.5, 0.5},
		BitsPerCell:            1,
		BitErrorsPerLevelError: 1,
	}
}

// BERModel bundles the two noise sources with a device spec and an
// encoding, answering the BER questions the experiments need.
type BERModel struct {
	Spec      *Spec
	Enc       Encoding
	C2C       C2CModel
	Retention RetentionModel
}

// NewBERModel wires the default calibrated models to spec and enc.
func NewBERModel(spec *Spec, enc Encoding) (*BERModel, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := enc.Validate(); err != nil {
		return nil, err
	}
	if len(enc.Occupancy) != spec.NumLevels() {
		return nil, fmt.Errorf("noise: encoding %q has %d levels, spec %q has %d",
			enc.Name, len(enc.Occupancy), spec.Name, spec.NumLevels())
	}
	return &BERModel{
		Spec:      spec,
		Enc:       enc,
		C2C:       DefaultC2C(),
		Retention: DefaultRetention(),
	}, nil
}

// cellErrorToBER converts a per-cell level-error rate into a bit error
// rate under the model's encoding.
func (m *BERModel) cellErrorToBER(p float64) float64 {
	return p * m.Enc.BitErrorsPerLevelError / m.Enc.BitsPerCell
}

// C2CBER returns the bit error rate caused by cell-to-cell interference
// immediately after programming (what Fig. 5 plots), at the nominal
// read references.
func (m *BERModel) C2CBER() float64 { return m.C2CBERShifted(0) }

// RetentionBER returns the bit error rate caused by retention charge
// loss after pe cycles and hours of storage (what Table 4 tabulates),
// at the nominal read references.
func (m *BERModel) RetentionBER(pe int, hours float64) float64 {
	return m.RetentionBERShifted(pe, hours, 0)
}

// TotalBER returns the combined raw bit error rate a reader sees at the
// nominal read references.
func (m *BERModel) TotalBER(pe int, hours float64) float64 {
	return m.TotalBERShifted(pe, hours, 0)
}

// C2CBERShifted returns the interference bit error rate with every read
// reference moved by shift volts.
func (m *BERModel) C2CBERShifted(shift float64) float64 {
	p := 0.0
	for i := 0; i < m.Spec.NumLevels(); i++ {
		p += m.Enc.Occupancy[i] * m.C2C.LevelErrorProb(m.Spec, i, shift)
	}
	return m.cellErrorToBER(p)
}

// RetentionBERShifted returns the retention bit error rate with every
// read reference moved by shift volts.
func (m *BERModel) RetentionBERShifted(pe int, hours, shift float64) float64 {
	p := 0.0
	for i := 0; i < m.Spec.NumLevels(); i++ {
		p += m.Enc.Occupancy[i] * m.Retention.LevelErrorProb(m.Spec, i, pe, hours, shift)
	}
	return m.cellErrorToBER(p)
}

// RetentionLevelShare returns each level's share of the total retention
// level-error rate (the paper's "78% and 15% of bit errors occur at Vth
// level 2 and 1" observation that motivates NUNMA).
func (m *BERModel) RetentionLevelShare(pe int, hours float64) []float64 {
	shares := make([]float64, m.Spec.NumLevels())
	total := 0.0
	for i := range shares {
		shares[i] = m.Enc.Occupancy[i] * m.Retention.LevelErrorProb(m.Spec, i, pe, hours, 0)
		total += shares[i]
	}
	if total > 0 {
		for i := range shares {
			shares[i] /= total
		}
	}
	return shares
}

// TotalBERShifted returns the raw BER a reader sees with every read
// reference moved by shift volts: the sum of interference and retention
// contributions (independent rare events). It is the drift-aware
// evaluation behind the adaptive read-retry ladder: a downward shift
// trades interference margin for retention margin.
func (m *BERModel) TotalBERShifted(pe int, hours, shift float64) float64 {
	return m.C2CBERShifted(shift) + m.RetentionBERShifted(pe, hours, shift)
}

// MonteCarloResult summarizes a sampled BER estimate.
type MonteCarloResult struct {
	Cells       int
	LevelErrors int
	MultiLevel  int // misreads that jumped more than one level
	PassFail    int // cells pushed above Vpass
	BER         float64
}

// MonteCarloBER estimates the combined BER by simulating cells cells:
// draw a stored level from the encoding occupancy, program it, apply a
// sampled interference shift and a sampled retention shift, then read it
// back against the spec's references. It exists to cross-validate the
// closed-form computations; the analytic path is what the experiment
// harnesses use.
func (m *BERModel) MonteCarloBER(cells int, pe int, hours float64, rng *rand.Rand) MonteCarloResult {
	res := MonteCarloResult{Cells: cells}
	cum := make([]float64, len(m.Enc.Occupancy))
	acc := 0.0
	for i, w := range m.Enc.Occupancy {
		acc += w
		cum[i] = acc
	}
	for c := 0; c < cells; c++ {
		u := rng.Float64()
		level := len(cum) - 1
		for i, b := range cum {
			if u < b {
				level = i
				break
			}
		}
		vth := m.Spec.Programmed(level).Sample(rng)
		vth += m.C2C.SampleShift(m.Spec, rng)
		// Disturb spread beyond coupling (RTN, read disturb).
		vth += m.C2C.DisturbSigma * rng.NormFloat64()
		x0 := m.Retention.X0.Sample(rng)
		vth -= m.Retention.SampleShift(vth, x0, pe, hours, rng)
		got, ok := m.Spec.ReadLevelStrict(vth)
		if !ok {
			res.PassFail++
			res.LevelErrors++
			continue
		}
		if got != level {
			res.LevelErrors++
			if got-level > 1 || level-got > 1 {
				res.MultiLevel++
			}
		}
	}
	p := float64(res.LevelErrors) / float64(cells)
	res.BER = m.cellErrorToBER(p)
	return res
}
