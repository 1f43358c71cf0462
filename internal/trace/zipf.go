package trace

import (
	"math"
	"math/rand"
)

// zipf draws the same variates as math/rand.Zipf, draw for draw, with
// the same rng calls in the same order, but decides most draws from a
// table instead of evaluating hinv's exp(log(·)) inversion.
//
// math/rand.Zipf is Hörmann–Derflinger rejection-inversion: each try
// maps one Float64 r to ur = hxm + r·(h(½) − v^−q − hxm), inverts
// x = hinv(ur), rounds k = ⌊x+½⌋ and accepts k when the squeeze
// k − x ≤ s holds or when ur ≥ T_k = h(k+½) − (k+v)^−q; otherwise it
// draws again. h and hinv are increasing, so in ur-space rank k owns
// [h(k−½), h(k+½)), its squeeze passes above h(k−s), and the
// acceptance test compares ur against a number that depends on k only.
//
// For the first zipfHead ranks the sampler precomputes those three
// boundaries and T_k, evaluated by the stdlib's own expression so that
// ur ≥ T_k is the stdlib's comparison, bit for bit. A draw whose ur lies
// inside a head rank and farther than zipfMargin·|boundary| from the
// region and squeeze boundaries is decided from the table: rounding in
// hinv cannot move x across a boundary that far away (see zipfMargin),
// so k and the squeeze outcome are those the stdlib computes. Either
// ur ≥ T_k (accept k) or ur lies below both T_k and the squeeze
// boundary (reject and draw again); any other draw — in the tail,
// inside a margin, or between T_k and a nearby squeeze boundary — runs
// a copy of the stdlib arithmetic. Every path consumes exactly one
// Float64 per try, so the rng is left where math/rand.Zipf leaves it.
//
// The table lives with the sampler: Generate builds one per stream.
type zipf struct {
	r *rand.Rand

	// The stdlib's constants, computed by the stdlib's expressions.
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64

	// The head table. urMin is the smallest ur a draw can produce
	// (r = 1); headTop is the upper boundary of the last head rank.
	// guide maps a bucket of [urMin, headTop) to the first rank whose
	// region can hold a ur in it.
	ranks   []zipfRank
	guide   []uint16
	urMin   float64
	headTop float64
	scale   float64
}

// zipfRank is one head rank's slice of ur-space.
type zipfRank struct {
	upper  float64 // h(k+½): the scan moves past the rank when ur >= upper
	lo, hi float64 // ur in (lo, hi) certainly rounds to k
	accept float64 // T_k: ur >= accept accepts k (the stdlib's own test)
	reject float64 // ur < reject fails both the squeeze and the T_k test
}

const (
	// zipfHead is the number of ranks with table entries. The paper
	// workloads' skews (s 1.10–1.40) put 77–95% of draws in the first
	// 512 ranks.
	zipfHead = 512
	// zipfBuckets sizes the guide index from ur to a candidate rank.
	zipfBuckets = 2048
	// zipfMargin is the relative distance in ur-space a table decision
	// keeps from every boundary that hinv's rounding could move.
	// Computing x = hinv(ur) = exp(log((1−q)·ur)/(1−q)) − v rounds a
	// product, a log, a quotient's product, an exp and a difference.
	// Carried back to ur-space through dur/dx = (v+x)^−q, the error is
	// within a few ulps of ur times (1 + |1−q|·log(v+x)), below 2^−45
	// relative for q ≤ 4 and x < 512 (the conditioning of hinv for q
	// near 1 cancels out). The table's boundaries, each one evaluation
	// of h, carry a like error. A margin of 2^−32 leaves a factor of
	// more than 2^12 over both, and costs a fallback on a fraction of
	// about 2^−32·|ur|/(v+k)^−q < 2^−13 of head draws.
	zipfMargin = 0x1p-32
)

// newZipf returns a sampler of k ∈ [0, imax] with P(k) ∝ (v+k)^−s, the
// distribution of rand.NewZipf(r, s, v, imax), or nil when s <= 1 or
// v < 1.
func newZipf(r *rand.Rand, s float64, v float64, imax uint64) *zipf {
	z := new(zipf)
	if s <= 1.0 || v < 1 {
		return nil
	}
	z.r = r
	z.imax = float64(imax)
	z.v = v
	z.q = s
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	z.buildHead(imax)
	return z
}

// buildHead fills the table for ranks 0..min(zipfHead, imax+1)−1. It
// stops early at the first rank whose certain interval (lo, hi) is
// empty or whose boundaries are not normal numbers (extreme skews
// underflow h); draws beyond the head take the stdlib path.
func (z *zipf) buildHead(imax uint64) {
	z.headTop = math.Inf(-1) // no table: every draw takes stdTry
	n := zipfHead
	if imax < zipfHead-1 {
		n = int(imax) + 1
	}
	normal := func(b float64) bool {
		a := math.Abs(b)
		return a >= 0x1p-1000 && a <= 0x1p1000
	}
	z.ranks = make([]zipfRank, 0, n)
	lower := z.h(-0.5)
	for k := 0; k < n; k++ {
		kf := float64(k)
		upper := z.h(kf + 0.5)
		squeeze := z.h(kf - z.s)
		accept := z.h(kf+0.5) - math.Exp(-math.Log(kf+z.v)*z.q)
		// ur is negative: adding zipfMargin·|b| moves b up, toward 0.
		rk := zipfRank{
			upper:  upper,
			lo:     lower + zipfMargin*math.Abs(lower),
			hi:     upper - zipfMargin*math.Abs(upper),
			accept: accept,
			reject: math.Min(accept, squeeze-zipfMargin*math.Abs(squeeze)),
		}
		if !(rk.lo < rk.hi) || !normal(lower) || !normal(upper) || !normal(squeeze) || !normal(accept) {
			break
		}
		z.ranks = append(z.ranks, rk)
		lower = upper
	}
	if len(z.ranks) == 0 {
		return
	}
	z.urMin = z.hxm + 1*z.hx0minusHxm
	top := z.ranks[len(z.ranks)-1].upper
	z.scale = zipfBuckets / (top - z.urMin)
	if !(z.scale > 0) || math.IsInf(z.scale, 0) {
		z.ranks = nil
		return
	}
	z.headTop = top
	// guide[b] is the smallest k with bucket(upper_k) >= b. bucket is
	// monotone in ur, so a ur of rank k has bucket(ur) <= bucket(upper_k)
	// and the scan from guide[bucket(ur)] never starts past k.
	z.guide = make([]uint16, zipfBuckets+1)
	b := 0
	for k := range z.ranks {
		for top := z.bucket(z.ranks[k].upper); b <= top; b++ {
			z.guide[b] = uint16(k)
		}
	}
	for ; b <= zipfBuckets; b++ {
		z.guide[b] = uint16(len(z.ranks) - 1)
	}
}

// bucket is the guide index of ur, clamped to the table.
func (z *zipf) bucket(ur float64) int {
	b := int((ur - z.urMin) * z.scale)
	if b < 0 {
		return 0
	}
	if b > zipfBuckets {
		return zipfBuckets
	}
	return b
}

// Uint64 returns the next variate: the value rand.Zipf.Uint64 returns
// from the same rng state.
func (z *zipf) Uint64() uint64 {
	for {
		r := z.r.Float64() // r on [0,1]
		ur := z.hxm + r*z.hx0minusHxm
		if k, ok := z.try(ur); ok {
			return k
		}
	}
}

// try decides one try of rejection-inversion at ur: the rank and true
// when it is accepted, false when the stdlib would draw again.
func (z *zipf) try(ur float64) (uint64, bool) {
	if ur < z.headTop {
		// ur >= urMin and ur < headTop keep the index in the guide.
		k := int(z.guide[int((ur-z.urMin)*z.scale)])
		for ur >= z.ranks[k].upper {
			k++
		}
		rk := &z.ranks[k]
		if ur > rk.lo && ur < rk.hi {
			if ur >= rk.accept {
				return uint64(k), true
			}
			if ur < rk.reject {
				return 0, false
			}
		}
	}
	return z.stdTry(ur)
}

// stdTry is the stdlib's try, verbatim.
func (z *zipf) stdTry(ur float64) (uint64, bool) {
	x := z.hinv(ur)
	k := math.Floor(x + 0.5)
	if k-x <= z.s {
		return uint64(k), true
	}
	if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
		return uint64(k), true
	}
	return 0, false
}

// h and hinv are the stdlib's, verbatim.

func (z *zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// The constants of newZipf, h, hinv and stdTry are
// copied from Go's math/rand/zipf.go, which carries this notice:
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//   - Redistributions of source code must retain the above copyright
//     notice, this list of conditions and the following disclaimer.
//   - Redistributions in binary form must reproduce the above
//     copyright notice, this list of conditions and the following disclaimer
//     in the documentation and/or other materials provided with the
//     distribution.
//   - Neither the name of Google LLC nor the names of its
//     contributors may be used to endorse or promote products derived from
//     this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
