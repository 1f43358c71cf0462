package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestProportionCI95(t *testing.T) {
	// Zero successes: lower bound 0, upper bound positive and small for
	// large n (rule-of-three territory).
	lo, hi := ProportionCI95(0, 1000)
	if lo > 1e-15 { // floating roundoff may leave a denormal-scale residue
		t.Errorf("lo = %g, want ~0", lo)
	}
	if hi <= 0 || hi > 0.01 {
		t.Errorf("hi = %g, want small positive", hi)
	}
	// All successes mirror.
	lo, hi = ProportionCI95(1000, 1000)
	if hi != 1 || lo < 0.99 {
		t.Errorf("all-success interval [%g, %g]", lo, hi)
	}
	// Half: symmetric-ish around 0.5.
	lo, hi = ProportionCI95(500, 1000)
	if math.Abs((lo+hi)/2-0.5) > 0.01 {
		t.Errorf("midpoint %g, want ~0.5", (lo+hi)/2)
	}
	// Wider with fewer trials.
	lo1, hi1 := ProportionCI95(5, 10)
	lo2, hi2 := ProportionCI95(500, 1000)
	if hi1-lo1 <= hi2-lo2 {
		t.Error("smaller n should widen the interval")
	}
	// Degenerate n.
	lo, hi = ProportionCI95(0, 0)
	if lo != 0 || hi != 1 {
		t.Errorf("n=0 interval [%g, %g], want [0,1]", lo, hi)
	}
}

func TestProportionCI95Coverage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const p = 0.3
	covered := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		succ := int64(0)
		const n = 150
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				succ++
			}
		}
		lo, hi := ProportionCI95(succ, n)
		if lo <= p && p <= hi {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.90 || rate > 0.99 {
		t.Errorf("Wilson coverage %.3f, want ~0.95", rate)
	}
}
