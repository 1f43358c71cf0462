package noise

import "math"

// Add returns the distribution of the sum of two independent Gaussians.
func (g Gaussian) Add(h Gaussian) Gaussian {
	return Gaussian{
		Mu:    g.Mu + h.Mu,
		Sigma: math.Hypot(g.Sigma, h.Sigma),
	}
}

// Scale returns the distribution of c*X.
func (g Gaussian) Scale(c float64) Gaussian {
	return Gaussian{Mu: c * g.Mu, Sigma: math.Abs(c) * g.Sigma}
}

// RetentionMargin returns the paper's retention-time noise margin for
// level i: the voltage distance between the Vth right after programming
// (distribution mean) and the lower read reference voltage. The erased
// level has no lower boundary; its margin is +Inf.
func (s *Spec) RetentionMargin(i int) float64 {
	if i == 0 {
		return math.Inf(1)
	}
	return s.Programmed(i).Mu - s.LowerRef(i, 0)
}

// InterferenceMargin returns the paper's cell-to-cell interference noise
// margin for level i: the distance between the post-program Vth mean and
// the upper read reference voltage.
func (s *Spec) InterferenceMargin(i int) float64 {
	return s.UpperRef(i, 0) - s.Programmed(i).Mu
}
