package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{1, 2, 3, 4, 5} {
		a.Add(x)
	}
	if a.n != 5 {
		t.Fatalf("N = %d, want 5", a.n)
	}
	if !almostEq(a.Mean(), 3, 1e-12) {
		t.Errorf("Mean = %g, want 3", a.Mean())
	}
	// The running update mean += (x-mean)/n is pinned: every mean the
	// device reports, and so every golden and digest, is summed this way.
	// On these response times it ends one ulp below sum/n (0.000391).
	var b Accumulator
	for _, x := range []float64{81e-6, 887e-6, 847e-6, 59e-6, 81e-6} {
		b.Add(x)
	}
	if b.Mean() != 0.00039099999999999996 {
		t.Errorf("Mean = %v, want the running update's 0.00039099999999999996", b.Mean())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 {
		t.Errorf("empty accumulator should report zeros, got %+v", a)
	}
}

func TestAccumulatorMeanWithinBounds(t *testing.T) {
	f := func(xs []float64) bool {
		var a Accumulator
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				return true // skip inputs whose moments overflow float64
			}
			a.Add(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if a.n == 0 {
			return true
		}
		// Mean must lie within [min, max] up to roundoff.
		span := math.Max(1, hi-lo)
		return a.Mean() >= lo-1e-9*span && a.Mean() <= hi+1e-9*span
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSamplePercentiles(t *testing.T) {
	s := NewSample(101)
	for i := 100; i >= 0; i-- { // reverse order: Percentile must rank
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 0}, {50, 50}, {100, 100}, {25, 25}, {95, 95},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !almostEq(s.Mean(), 50, 1e-9) {
		t.Errorf("Mean = %g, want 50", s.Mean())
	}
}

func TestSampleInterpolation(t *testing.T) {
	s := NewSample(2)
	s.Add(0)
	s.Add(10)
	if got := s.Percentile(50); !almostEq(got, 5, 1e-9) {
		t.Errorf("Percentile(50) of {0,10} = %g, want 5", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample(0)
	if s.Percentile(50) != 0 || s.Mean() != 0 || s.N() != 0 {
		t.Error("empty sample should report zeros")
	}
}

func TestSamplePercentileMonotone(t *testing.T) {
	f := func(raw []float64, seed int64) bool {
		s := NewSample(len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 100}); !almostEq(g, 10, 1e-9) {
		t.Errorf("GeoMean(1,100) = %g, want 10", g)
	}
	if g := GeoMean([]float64{-1, 0}); g != 0 {
		t.Errorf("GeoMean of non-positive = %g, want 0", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %g, want 0", g)
	}
}

func TestMeanSlice(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); !almostEq(m, 2, 1e-12) {
		t.Errorf("Mean = %g, want 2", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %g, want 0", m)
	}
}

func TestAccumulatorGaussianMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a Accumulator
	for i := 0; i < 200000; i++ {
		a.Add(rng.NormFloat64()*2 + 5)
	}
	if !almostEq(a.Mean(), 5, 0.05) {
		t.Errorf("Mean = %g, want ~5", a.Mean())
	}
}
