package stats

import "math"

// z95 is the two-sided 95% normal quantile.
const z95 = 1.959963984540054

// ProportionCI95 returns the Wilson score 95% interval for a binomial
// proportion with the given successes out of n trials — the right
// interval for frame-error-rate estimates where successes may be 0.
func ProportionCI95(successes, n int64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	p := float64(successes) / float64(n)
	z := z95
	z2 := z * z
	nf := float64(n)
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf)) / denom
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
