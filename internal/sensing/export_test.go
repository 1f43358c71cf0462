package sensing

import "math"

// TriggerBER returns the raw BER above which the first extra sensing
// level becomes necessary — the paper quotes 4e-3 for its code. Found by
// bisection on the monotone RequiredLevels rule.
func (r LevelRule) TriggerBER() float64 {
	lo, hi := 1e-6, 0.5
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection: BER spans decades
		if l, _ := r.RequiredLevels(mid); l == 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}
