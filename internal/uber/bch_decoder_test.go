package uber_test

import "fmt"

// Code is a binary primitive BCH code of length n = 2^m - 1 correcting
// up to T bit errors.
type Code struct {
	M int // field degree
	N int // codeword length = 2^m - 1
	K int // information length
	T int // designed correction capability

	f   *field
	gen gpoly // generator polynomial, degree N-K
}

// New constructs the narrow-sense binary BCH code over GF(2^m) with
// designed distance 2t+1: the generator is the LCM of the minimal
// polynomials of α, α^2, …, α^2t.
func New(m, t int) (*Code, error) {
	if t < 1 {
		return nil, fmt.Errorf("bch: t must be positive, have %d", t)
	}
	f, err := newField(m)
	if err != nil {
		return nil, err
	}
	// LCM via multiplying each distinct minimal polynomial once
	// (distinct cyclotomic cosets give coprime minimal polynomials).
	gen := gpoly{1}
	seenCoset := map[int]bool{}
	for i := 1; i <= 2*t; i++ {
		// Coset representative: smallest element of i's coset.
		rep := i % f.n
		c := rep
		for {
			c = c * 2 % f.n
			if c == i%f.n {
				break
			}
			if c < rep {
				rep = c
			}
		}
		if seenCoset[rep] {
			continue
		}
		seenCoset[rep] = true
		gen = mulGF2(gen, f.minimalPoly(i))
	}
	k := f.n - gen.deg()
	if k <= 0 {
		return nil, fmt.Errorf("bch: t=%d too large for m=%d (no information bits left)", t, m)
	}
	return &Code{M: m, N: f.n, K: k, T: t, f: f, gen: gen}, nil
}

// Rate returns the code rate k/n.
func (c *Code) Rate() float64 { return float64(c.K) / float64(c.N) }

// ParityBits returns n - k.
func (c *Code) ParityBits() int { return c.N - c.K }

// Encode systematically encodes K data bits (one per byte) into an
// N-bit codeword: codeword = [parity | data] with the data occupying
// the high-degree positions, the classic cyclic-code layout.
func (c *Code) Encode(data []byte) ([]byte, error) {
	if len(data) != c.K {
		return nil, fmt.Errorf("bch: data length %d, want %d", len(data), c.K)
	}
	cw := make([]byte, c.N)
	copy(cw[c.N-c.K:], data)
	// parity = (data(x) * x^(n-k)) mod g(x), computed by long division.
	rem := make([]byte, c.N)
	copy(rem[c.N-c.K:], data)
	dg := c.gen.deg()
	for d := c.N - 1; d >= dg; d-- {
		if rem[d] == 0 {
			continue
		}
		for j, coef := range c.gen {
			rem[d-dg+j] ^= coef
		}
	}
	copy(cw[:dg], rem[:dg])
	return cw, nil
}

// IsCodeword reports whether cw has all-zero syndromes.
func (c *Code) IsCodeword(cw []byte) bool {
	if len(cw) != c.N {
		return false
	}
	for i := 1; i <= 2*c.T; i++ {
		if c.syndrome(cw, i) != 0 {
			return false
		}
	}
	return true
}

// syndrome evaluates the received polynomial at α^i.
func (c *Code) syndrome(cw []byte, i int) int {
	s := 0
	for pos, bit := range cw {
		if bit&1 == 1 {
			s ^= c.f.pow(pos * i)
		}
	}
	return s
}

// Result reports a decode attempt.
type Result struct {
	Bits      []byte // corrected codeword
	Data      []byte // corrected information bits
	Corrected int    // error positions flipped
	OK        bool   // decoding succeeded (locator consistent)
}

// Decode corrects up to T bit errors in place of the received word using
// syndromes, Berlekamp-Massey and Chien search.
func (c *Code) Decode(received []byte) (Result, error) {
	if len(received) != c.N {
		return Result{}, fmt.Errorf("bch: received length %d, want %d", len(received), c.N)
	}
	bits := make([]byte, c.N)
	copy(bits, received)

	synd := make([]int, 2*c.T+1) // synd[i] = S_i, 1-based
	allZero := true
	for i := 1; i <= 2*c.T; i++ {
		synd[i] = c.syndrome(bits, i)
		if synd[i] != 0 {
			allZero = false
		}
	}
	if allZero {
		return Result{Bits: bits, Data: bits[c.N-c.K:], OK: true}, nil
	}

	sigma, ok := c.berlekampMassey(synd)
	if !ok {
		return Result{Bits: bits, Data: bits[c.N-c.K:], OK: false}, nil
	}
	// Chien search: σ(α^-pos) == 0 marks an error at pos.
	positions := []int{}
	for pos := 0; pos < c.N; pos++ {
		v := 0
		for d, coef := range sigma {
			if coef == 0 {
				continue
			}
			// evaluate at x = α^{-pos}: term = coef * α^{-pos*d}
			e := (c.f.n - pos%c.f.n) % c.f.n
			v ^= c.f.mul(coef, c.f.pow(e*d))
		}
		if v == 0 {
			positions = append(positions, pos)
		}
	}
	if len(positions) != len(sigma)-1 {
		// Locator degree and root count disagree: more than T errors.
		return Result{Bits: bits, Data: bits[c.N-c.K:], OK: false}, nil
	}
	for _, p := range positions {
		bits[p] ^= 1
	}
	if !c.IsCodeword(bits) {
		return Result{Bits: bits, Data: bits[c.N-c.K:], OK: false}, nil
	}
	return Result{
		Bits:      bits,
		Data:      bits[c.N-c.K:],
		Corrected: len(positions),
		OK:        true,
	}, nil
}

// berlekampMassey finds the error locator polynomial σ (coefficients
// over GF(2^m), σ[0] = 1) from the syndromes. ok is false when the
// locator degree exceeds T.
func (c *Code) berlekampMassey(synd []int) (sigma []int, ok bool) {
	f := c.f
	sigma = []int{1}
	b := []int{1}
	L, m := 0, 1
	bdisc := 1
	for n := 1; n <= 2*c.T; n++ {
		// Discrepancy d = S_n + Σ σ_i S_{n-i}.
		d := synd[n]
		for i := 1; i <= L && i < len(sigma); i++ {
			d ^= f.mul(sigma[i], synd[n-i])
		}
		if d == 0 {
			m++
			continue
		}
		// sigma' = sigma - (d/bdisc) x^m b
		scale := f.mul(d, f.inv(bdisc))
		next := make([]int, max(len(sigma), len(b)+m))
		copy(next, sigma)
		for i, coef := range b {
			next[i+m] ^= f.mul(scale, coef)
		}
		if 2*L <= n-1 {
			b = sigma
			bdisc = d
			L = n - L
			m = 1
		} else {
			m++
		}
		sigma = next
	}
	// Trim trailing zeros.
	for len(sigma) > 1 && sigma[len(sigma)-1] == 0 {
		sigma = sigma[:len(sigma)-1]
	}
	return sigma, len(sigma)-1 <= c.T
}
