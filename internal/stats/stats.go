// Package stats provides small statistical accumulators used across the
// FlexLevel simulator: streaming means, exact percentiles by selection
// over whole samples or bounded reservoirs, and the proportion
// confidence intervals and means the experiment harnesses report.
package stats

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
)

// Accumulator tracks the count and running mean of a stream of float64
// observations. The zero value is ready to use.
type Accumulator struct {
	n    int64
	mean float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	a.mean += (x - a.mean) / float64(a.n)
}

// Mean returns the arithmetic mean, or 0 with no observations.
func (a *Accumulator) Mean() float64 { return a.mean }

// Sample keeps observations and answers percentile queries. The default
// (NewSample / zero value) keeps every observation and answers exactly —
// use for response-time distributions where tail percentiles matter and
// the stream is bounded. NewReservoir bounds memory for long-running
// streams (the serve daemon) by uniform reservoir sampling: percentiles
// become estimates over a cap-sized uniform subsample.
//
// Observations must be finite: a NaN has no rank, so a sample holding
// one answers percentile queries without meaning.
type Sample struct {
	xs []float64

	// Reservoir mode (cap > 0): seen counts every Add, rng drives the
	// replacement draw (algorithm R), deterministic from the seed, and
	// scratch is the reused copy of xs a percentile query reorders.
	cap     int
	seen    int64
	rng     *rand.Rand
	scratch []float64
}

// NewSample returns a Sample pre-allocated for capacity hint n. It keeps
// every observation.
func NewSample(n int) *Sample { return &Sample{xs: make([]float64, 0, n)} }

// NewReservoir returns a Sample bounded to cap observations. Once full,
// each new observation replaces a uniformly random kept one with
// probability cap/seen (Vitter's algorithm R), so the kept set is a
// uniform subsample of the whole stream and percentile queries are
// unbiased estimates. The replacement draw is seeded, so a given stream
// and seed always keep the same subsample. cap < 1 falls back to an
// unbounded sample.
func NewReservoir(cap int, seed int64) *Sample {
	if cap < 1 {
		return NewSample(0)
	}
	return &Sample{
		xs:  make([]float64, 0, cap),
		cap: cap,
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.seen++
	if s.cap > 0 && len(s.xs) >= s.cap {
		if j := s.rng.Int63n(s.seen); j < int64(s.cap) {
			s.xs[j] = x
		}
		return
	}
	s.xs = append(s.xs, x)
}

// Grow makes room for n more observations, so the next n Adds of an
// unbounded sample never reallocate. A reservoir is sized to its cap
// from the start and is left as it is.
func (s *Sample) Grow(n int) {
	if s.cap == 0 && n > 0 {
		s.xs = slices.Grow(s.xs, n)
	}
}

// N returns the number of kept observations (at most the reservoir cap).
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Percentiles returns the p-th percentile for each p of ps, in order,
// using linear interpolation between closest ranks; p below 0 or above
// 100 is clamped. Each answer is 0 with no observations and NaN for a NaN
// p. The ranks come from one selection pass: the ranks are settled in
// ascending order, and each selection searches only the part of the
// observations the previous one left above its rank. When a rank is not
// whole, the next rank up is the minimum of that part. Order statistics
// being exact, every answer is the one a full sort gives (a zero's sign
// aside: -0 and +0 tie, so either may come first).
//
// An exact sample is reordered in place. A reservoir selects over a
// reused copy instead: its Add replaces a slot by index, so reordering
// the slots would make the subsample it keeps, and every later answer,
// depend on when it was queried.
func (s *Sample) Percentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	n := len(s.xs)
	if n == 0 {
		return out
	}
	xs := s.xs
	if s.cap > 0 {
		s.scratch = append(s.scratch[:0], s.xs...)
		xs = s.scratch
	}
	order := make([]int, len(ps))
	for i := range order {
		order[i] = i
	}
	// NaN sorts first, the clamped ranks next; none of them selects.
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ps[a], ps[b]) })
	settled, x := -1, 0.0 // xs[settled] == x, nothing smaller after it
	for _, i := range order {
		p := ps[i]
		switch {
		case math.IsNaN(p):
			out[i] = math.NaN()
			continue
		case p <= 0:
			out[i] = minOf(xs)
			continue
		case p >= 100:
			out[i] = maxOf(xs)
			continue
		}
		rank := p / 100 * float64(n-1)
		lo := int(math.Floor(rank))
		if lo != settled {
			x = selectRank(xs[settled+1:], lo-settled-1)
			settled = lo
		}
		if float64(lo) == rank {
			out[i] = x
			continue
		}
		frac := rank - float64(lo)
		out[i] = x*(1-frac) + minOf(xs[lo+1:])*frac
	}
	return out
}

// selectRank reorders xs so that xs[k] holds the k-th smallest value,
// with nothing larger before it and nothing smaller after it, and
// returns that value. It is quickselect with a median-of-three pivot and
// a three-way split made of two branch-free passes (below the pivot,
// then equal to it), so a run of equal values — response times cluster
// on a few sensing steps — is settled in one level.
func selectRank(xs []float64, k int) float64 {
	for len(xs) > 1 {
		pivot := median3(xs[0], xs[len(xs)/2], xs[len(xs)-1])
		lt := partitionBelow(xs, pivot)
		if k < lt {
			xs = xs[:lt]
			continue
		}
		le := lt + partitionEqual(xs[lt:], pivot)
		if k < le {
			return pivot
		}
		xs, k = xs[le:], k-le
	}
	return xs[k]
}

// partitionBelow moves the elements below pivot to the front of xs,
// keeping no order, and returns how many there are. The count is a
// conditional add rather than a branch so the compiler emits a flag
// set: a branch on a random pivot comparison mispredicts half the time.
func partitionBelow(xs []float64, pivot float64) int {
	j := 0
	for i, x := range xs {
		xs[i] = xs[j]
		xs[j] = x
		d := 0
		if x < pivot {
			d = 1
		}
		j += d
	}
	return j
}

// partitionEqual is partitionBelow for "not above pivot"; on elements
// already at or above the pivot it gathers the ones equal to it. A NaN,
// false in every comparison, also lands here, so the pivot's own slot
// always counts and selection shrinks its range at every level even on
// data breaking the finite-observation contract.
func partitionEqual(xs []float64, pivot float64) int {
	j := 0
	for i, x := range xs {
		xs[i] = xs[j]
		xs[j] = x
		d := 0
		if !(x > pivot) {
			d = 1
		}
		j += d
	}
	return j
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// GeoMean returns the geometric mean of xs, ignoring non-positive entries.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
