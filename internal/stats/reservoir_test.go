package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestReservoirBoundsMemory: the kept set never exceeds the cap, Seen
// counts the whole stream, and a sub-cap stream is kept exactly.
func TestReservoirBoundsMemory(t *testing.T) {
	r := NewReservoir(128, 7)
	for i := 0; i < 100; i++ {
		r.Add(float64(i))
	}
	if r.N() != 100 || r.seen != 100 {
		t.Fatalf("sub-cap stream: N=%d Seen=%d, want 100/100", r.N(), r.seen)
	}
	// Below cap nothing is evicted: exact percentiles.
	if got := r.Percentile(50); got != 49.5 {
		t.Fatalf("sub-cap median %g, want 49.5", got)
	}
	for i := 100; i < 100000; i++ {
		r.Add(float64(i))
	}
	if r.N() != 128 {
		t.Fatalf("kept %d observations, cap is 128", r.N())
	}
	if r.seen != 100000 {
		t.Fatalf("Seen=%d, want 100000", r.seen)
	}
}

// TestReservoirDeterministic: same stream + same seed keeps the same
// subsample; a different seed keeps a different one.
func TestReservoirDeterministic(t *testing.T) {
	run := func(seed int64) []float64 {
		r := NewReservoir(64, seed)
		for i := 0; i < 20000; i++ {
			r.Add(float64(i * 31 % 9973))
		}
		out := make([]float64, 0, r.N())
		for p := 0.0; p <= 100; p += 5 {
			out = append(out, r.Percentile(p))
		}
		return out
	}
	a, b := run(3), run(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at percentile index %d: %g vs %g", i, a[i], b[i])
		}
	}
	c := run(4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds kept identical subsamples across every percentile")
	}
}

// TestReservoirEstimatesPercentiles: over a uniform stream the bounded
// estimate lands near the exact percentile (uniform subsample, so the
// p-th percentile concentrates around p for a 0..1 uniform ramp).
func TestReservoirEstimatesPercentiles(t *testing.T) {
	exact := NewSample(0)
	est := NewReservoir(2048, 11)
	const n = 200000
	for i := 0; i < n; i++ {
		x := float64(i%1000) / 1000
		exact.Add(x)
		est.Add(x)
	}
	for _, p := range []float64{50, 95, 99} {
		e, g := exact.Percentile(p), est.Percentile(p)
		if math.Abs(e-g) > 0.05 {
			t.Fatalf("p%g estimate %g vs exact %g (tolerance 0.05)", p, g, e)
		}
	}
}

// TestReservoirZeroCapIsUnbounded: cap < 1 falls back to the exact
// sample, the legacy default SampleCap=0 relies on.
func TestReservoirZeroCapIsUnbounded(t *testing.T) {
	r := NewReservoir(0, 1)
	for i := 0; i < 5000; i++ {
		r.Add(float64(i))
	}
	if r.N() != 5000 {
		t.Fatalf("cap-0 reservoir kept %d of 5000", r.N())
	}
	if got := r.Percentile(99); got != exactP99(5000) {
		t.Fatalf("cap-0 reservoir p99 %g, want exact %g", got, exactP99(5000))
	}
}

// exactP99 is the linear-interpolation 99th percentile of 0..n-1.
func exactP99(n int) float64 { return 0.99 * float64(n-1) }

// TestSampleGrow: after Grow(n) an exact sample takes n more Adds in
// place, keeping what it held; a reservoir keeps its cap-sized buffer,
// and a non-positive n changes nothing.
func TestSampleGrow(t *testing.T) {
	s := NewSample(0)
	s.Add(1)
	s.Grow(1000)
	if cap(s.xs) < 1001 {
		t.Fatalf("Grow(1000) on one kept value left cap %d", cap(s.xs))
	}
	buf := &s.xs[0]
	for i := 0; i < 1000; i++ {
		s.Add(float64(i + 2))
	}
	if &s.xs[0] != buf {
		t.Error("Adds within the grown capacity reallocated")
	}
	if s.N() != 1001 || s.Percentile(0) != 1 || s.Percentile(100) != 1001 {
		t.Errorf("grown sample kept N=%d, min %g, max %g", s.N(), s.Percentile(0), s.Percentile(100))
	}
	before := cap(s.xs)
	s.Grow(0)
	s.Grow(-5)
	if s.N() != 1001 || cap(s.xs) != before {
		t.Errorf("Grow of a non-positive count changed N to %d, cap %d to %d", s.N(), before, cap(s.xs))
	}
	r := NewReservoir(64, 1)
	r.Grow(1000)
	if cap(r.xs) != 64 {
		t.Errorf("Grow on a reservoir changed its buffer to cap %d", cap(r.xs))
	}
}

// TestReservoirQueriesDoNotPerturb: a percentile query leaves a
// reservoir's kept subsample as it was, so a reservoir queried every 500
// Adds ends with the same slots, and the same answers, as one never
// queried. (Selecting in place used to reorder the slots that Add then
// replaces by index.)
func TestReservoirQueriesDoNotPerturb(t *testing.T) {
	quiet, queried := NewReservoir(1000, 5), NewReservoir(1000, 5)
	rng := rand.New(rand.NewSource(9))
	for i := 1; i <= 20000; i++ {
		x := rng.ExpFloat64()
		quiet.Add(x)
		queried.Add(x)
		if i%500 == 0 {
			queried.Percentiles(50, 95, 99)
		}
	}
	if !slices.Equal(quiet.xs, queried.xs) {
		t.Error("querying changed the reservoir's kept subsample")
	}
	a, b := quiet.Percentiles(50, 95, 99), queried.Percentiles(50, 95, 99)
	if !slices.Equal(a, b) {
		t.Errorf("p50/p95/p99 %v after periodic queries, %v without", b, a)
	}
}
