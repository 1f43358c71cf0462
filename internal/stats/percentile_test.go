package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refPercentile is the sort-based definition Percentile must match bit
// for bit: sort a copy, then interpolate linearly between closest ranks.
func refPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	rank := p / 100 * float64(len(c)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo == hi {
		return c[lo]
	}
	frac := rank - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
}

// sameFloat reports bit equality. The one exception is a zero of either
// sign: -0 and +0 compare equal, so a sort may leave either first, and
// the sign of a zero percentile was never defined.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0) ||
		(math.IsNaN(a) && math.IsNaN(b))
}

// checkPercentile queries s at p and compares against the reference
// over the kept observations at the time of the query. It also checks
// the query only reordered them.
func checkPercentile(t *testing.T, s *Sample, p float64) {
	t.Helper()
	before := append([]float64(nil), s.xs...)
	want := refPercentile(before, p)
	got := s.Percentile(p)
	if !sameFloat(got, want) {
		t.Fatalf("Percentile(%v) over %d obs = %v (%#x), sort reference %v (%#x)",
			p, len(before), got, math.Float64bits(got), want, math.Float64bits(want))
	}
	after := append([]float64(nil), s.xs...)
	sort.Float64s(before)
	sort.Float64s(after)
	for i := range before {
		if !sameFloat(before[i], after[i]) {
			t.Fatalf("Percentile(%v) changed the kept observations at sorted index %d: %v -> %v",
				p, i, before[i], after[i])
		}
	}
}

func TestSamplePercentileNaN(t *testing.T) {
	s := NewSample(10)
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("Percentile(NaN) = %v, want NaN", got)
	}
	// Out-of-range p still clamps to the extremes.
	if got := s.Percentile(-5); got != 1 {
		t.Errorf("Percentile(-5) = %v, want 1", got)
	}
	if got := s.Percentile(math.Inf(1)); got != 10 {
		t.Errorf("Percentile(+Inf) = %v, want 10", got)
	}
	if got := NewSample(0).Percentile(math.NaN()); got != 0 {
		t.Errorf("empty Percentile(NaN) = %v, want 0", got)
	}
	// NaN and infinite observations break the finite contract, so their
	// answers carry no meaning, but a query must still return.
	bad := NewSample(0)
	for i, x := range []float64{math.NaN(), 3, math.Inf(1), math.NaN(), -1, math.Inf(-1), 3, math.NaN()} {
		bad.Add(x)
		for _, p := range []float64{0, 10, 50, 90, 100, 100 * float64(i) / 7} {
			bad.Percentile(p)
		}
	}
}

// TestPercentileMatchesSort: over small, duplicate-heavy and
// cell-sized samples, every percentile the sweeps report equals the
// sort-based reference bit for bit, whatever order queries come in.
func TestPercentileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := []float64{99, 50, 95, 0, 100, 25, 99.9, 1e-9, 100 - 1e-9, 50}
	gens := map[string]func() float64{
		"uniform":   rng.Float64,
		"lognormal": func() float64 { return math.Exp(rng.NormFloat64()) * 300 },
		"dups":      func() float64 { return float64(rng.Intn(4)) },
		"mixed":     func() float64 { return float64(rng.Intn(50)) * 1e-6 },
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 31, 100, 1000, 44521} {
		for name, gen := range gens {
			s := NewSample(n)
			for i := 0; i < n; i++ {
				s.Add(gen())
			}
			for _, p := range ps {
				checkPercentile(t, s, p)
			}
			if t.Failed() {
				t.Fatalf("n=%d %s", n, name)
			}
		}
	}
}

// TestPercentilesMatchSeparateCalls: one Percentiles pass answers each
// query exactly as a Percentile call on its own copy of the sample (in
// arrival order) does, over small, tied and reservoir samples and query
// lists with repeats, clamped and NaN percentiles in any order, and it
// only reorders the kept observations.
func TestPercentilesMatchSeparateCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	queries := [][]float64{
		{50, 95, 99},
		{99, 95, 50},
		{0, 100},
		{100, 50, 0, 50},
		{99.9, 1e-9, math.NaN(), -1, 101, 25, 25},
		{},
	}
	gens := map[string]func() float64{
		"lognormal": func() float64 { return math.Exp(rng.NormFloat64()) * 300 },
		"ties":      func() float64 { return float64(rng.Intn(3)) },
		"one value": func() float64 { return 7 },
	}
	for _, n := range []int{0, 1, 2, 3, 5, 100, 44521} {
		for name, gen := range gens {
			for _, reservoir := range []bool{false, true} {
				s := NewSample(n)
				if reservoir {
					s = NewReservoir(1+n/3, int64(n))
				}
				for i := 0; i < n; i++ {
					s.Add(gen())
				}
				for _, ps := range queries {
					arrival := append([]float64(nil), s.xs...)
					got := s.Percentiles(ps...)
					if len(got) != len(ps) {
						t.Fatalf("n=%d %s: %d answers to %d queries", n, name, len(got), len(ps))
					}
					for i, p := range ps {
						c := &Sample{xs: append([]float64(nil), arrival...)}
						if want := c.Percentile(p); !sameFloat(got[i], want) {
							t.Fatalf("n=%d %s reservoir=%v queries %v: Percentiles[%d] = %v, Percentile(%v) = %v",
								n, name, reservoir, ps, i, got[i], p, want)
						}
					}
					after := append([]float64(nil), s.xs...)
					sort.Float64s(arrival)
					sort.Float64s(after)
					if !slices.Equal(arrival, after) {
						t.Fatalf("n=%d %s: Percentiles changed the kept observations", n, name)
					}
				}
			}
		}
	}
}

// FuzzSamplePercentile drives a Sample — unbounded or a small reservoir
// — through an arbitrary interleaving of Adds and percentile queries,
// and checks every answer against the sort-based reference. Each op
// byte picks an action: add a value from a duplicate-heavy small set,
// add an arbitrary finite float64, or query a percentile (0 and 100,
// out-of-range, NaN, or any fraction in between).
func FuzzSamplePercentile(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint8(0), int64(1))
	f.Add([]byte{0, 5, 0, 5, 0, 5, 6, 0, 6, 7, 6, 10, 6, 255}, uint8(0), int64(2))
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 2, 6, 128}, uint8(3), int64(7))
	f.Fuzz(func(t *testing.T, ops []byte, cap uint8, seed int64) {
		if len(ops) > 2048 {
			ops = ops[:2048] // each query re-sorts a copy: keep inputs quick
		}
		var s *Sample
		if c := int(cap % 8); c == 0 {
			s = NewSample(0)
		} else {
			s = NewReservoir(c, seed)
		}
	loop:
		for i := 0; i < len(ops); i++ {
			op := ops[i]
			switch op % 3 {
			case 0: // a duplicate-heavy small value
				s.Add(float64(op/3%5) - 1)
			case 1: // an arbitrary finite float64 from the next 8 bytes
				if i+8 >= len(ops) {
					break loop
				}
				x := math.Float64frombits(binary.LittleEndian.Uint64(ops[i+1 : i+9]))
				i += 8
				if math.IsNaN(x) || math.IsInf(x, 0) {
					continue
				}
				s.Add(x)
			case 2: // a query
				if i+1 >= len(ops) {
					break loop
				}
				i++
				checkPercentile(t, s, fuzzP(ops[i]))
			}
		}
		for _, p := range []float64{0, 50, 95, 99, 100} {
			checkPercentile(t, s, p)
		}
	})
}

// fuzzP maps a byte to a query percentile, covering the clamped and
// NaN inputs as well as the interior.
func fuzzP(b byte) float64 {
	switch b {
	case 0:
		return 0
	case 1:
		return 100
	case 2:
		return -1
	case 3:
		return 101
	case 4:
		return math.NaN()
	}
	return float64(b-5) / 250 * 100
}

// BenchmarkSamplePercentiles: p50/p95/p99 of a 44,521-observation
// sample — the size of the paper grid's web-1 cell — the queries a
// replay's Finish makes. Every iteration starts from the arrival order,
// as a fresh replay's sample does.
func BenchmarkSamplePercentiles(b *testing.B) {
	const n = 44521
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, n)
	for i := range src {
		src[i] = math.Round(math.Exp(rng.NormFloat64()*0.6)*300) * 1e-6
	}
	s := NewSample(n)
	s.xs = s.xs[:n]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(s.xs, src)
		_ = s.Percentiles(50, 95, 99)
	}
}
