package nunma

import (
	"fmt"
	"math"

	"flexlevel/internal/noise"
)

// Read-reference tuning: the alternative mitigation FlexLevel's related
// work builds on (Cai et al., DATE'13 — paper ref [11]): instead of
// changing the number of Vth levels, the controller shifts the read
// reference voltages downward to track retention drift. TuneReadRefs
// implements the optimal per-boundary placement so the ablation can ask
// whether reference tuning alone removes the need for soft sensing
// (it does not, at high wear — see exp.RefTuneAblation).

// TuneReadRefs grid-searches a downward shift for every read reference
// of spec, minimizing the combined C2C + retention BER under enc at the
// given wear point, and returns the tuned copy (spec is untouched).
// Shifts are bounded so references stay ordered.
func TuneReadRefs(spec *noise.Spec, enc noise.Encoding, pe int, hours float64) (*noise.Spec, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tuned := *spec
	tuned.Name = spec.Name + "+reftune"
	tuned.Levels = append([]noise.Level(nil), spec.Levels...)
	tuned.ReadRefs = append([]float64(nil), spec.ReadRefs...)

	// Each reference only affects its two adjacent levels, so optimize
	// boundaries independently, in order, keeping refs strictly
	// ascending.
	const (
		lo   = -0.20
		hi   = +0.05
		step = 0.005
	)
	for i := range tuned.ReadRefs {
		bestShift, bestBER := 0.0, math.Inf(1)
		orig := spec.ReadRefs[i]
		for s := lo; s <= hi+1e-12; s += step {
			cand := orig + s
			// Keep ordering against the (already tuned) previous ref
			// and the (untuned) next ref.
			if i > 0 && cand <= tuned.ReadRefs[i-1]+0.05 {
				continue
			}
			if i < len(tuned.ReadRefs)-1 && cand >= spec.ReadRefs[i+1]-0.05 {
				continue
			}
			tuned.ReadRefs[i] = cand
			m, err := noise.NewBERModel(&tuned, enc)
			if err != nil {
				return nil, err
			}
			if b := m.TotalBER(pe, hours); b < bestBER {
				bestBER, bestShift = b, s
			}
		}
		if math.IsInf(bestBER, 1) {
			return nil, fmt.Errorf("nunma: no feasible shift for reference %d", i)
		}
		tuned.ReadRefs[i] = orig + bestShift
	}
	return &tuned, nil
}
