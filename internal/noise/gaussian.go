// Package noise models the device-level noise sources of MLC NAND flash
// that FlexLevel (DAC'15) builds on: programmed threshold-voltage (Vth)
// distributions, cell-to-cell interference (paper Eq. 2), and retention
// charge loss (paper Eq. 3). It offers both closed-form (Gaussian tail)
// error-probability computations and a Monte-Carlo cell sampler used to
// cross-validate the analytics.
package noise

import (
	"math"
	"math/rand"
)

// Gaussian is a normal distribution N(Mu, Sigma^2).
type Gaussian struct {
	Mu    float64
	Sigma float64
}

// CDF returns P(X <= x).
func (g Gaussian) CDF(x float64) float64 {
	if g.Sigma <= 0 {
		if x >= g.Mu {
			return 1
		}
		return 0
	}
	return 0.5 * math.Erfc((g.Mu-x)/(g.Sigma*math.Sqrt2))
}

// Tail returns P(X > x), the upper tail probability.
func (g Gaussian) Tail(x float64) float64 {
	if g.Sigma <= 0 {
		if x < g.Mu {
			return 1
		}
		return 0
	}
	return 0.5 * math.Erfc((x-g.Mu)/(g.Sigma*math.Sqrt2))
}

// Sample draws one value using rng.
func (g Gaussian) Sample(rng *rand.Rand) float64 {
	return g.Mu + g.Sigma*rng.NormFloat64()
}
