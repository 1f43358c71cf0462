// This file and bch_decoder_test.go hold a binary BCH code, the
// hard-decision ECC NAND controllers used before LDPC (paper §1: "for
// the storage systems of 3Xnm NAND flash memory, hard-decision ECC such
// as BCH is usually utilized"): GF(2^m) arithmetic, systematic encoding
// via the generator polynomial, and syndrome / Berlekamp-Massey / Chien
// decoding. No program uses it; it is the reference decoder of
// TestTailMatchesBCH, which checks Eq. 1's binomial tail against it.
package uber_test

import "fmt"

// primitivePolys[m] is a primitive polynomial of degree m over GF(2),
// encoded with bit i = coefficient of x^i (the classic table used by
// BCH implementations).
var primitivePolys = map[int]uint32{
	3:  0b1011,             // x^3 + x + 1
	4:  0b10011,            // x^4 + x + 1
	5:  0b100101,           // x^5 + x^2 + 1
	6:  0b1000011,          // x^6 + x + 1
	7:  0b10001001,         // x^7 + x^3 + 1
	8:  0b100011101,        // x^8 + x^4 + x^3 + x^2 + 1
	9:  0b1000010001,       // x^9 + x^4 + 1
	10: 0b10000001001,      // x^10 + x^3 + 1
	11: 0b100000000101,     // x^11 + x^2 + 1
	12: 0b1000001010011,    // x^12 + x^6 + x^4 + x + 1
	13: 0b10000000011011,   // x^13 + x^4 + x^3 + x + 1
	14: 0b100010001000011,  // x^14 + x^10 + x^6 + x + 1
	15: 0b1000000000000011, // x^15 + x + 1
}

// field is GF(2^m) with exp/log tables over the primitive element α.
type field struct {
	m    int
	n    int // 2^m - 1, the multiplicative group order
	exp  []int
	log  []int
	poly uint32
}

func newField(m int) (*field, error) {
	poly, ok := primitivePolys[m]
	if !ok {
		return nil, fmt.Errorf("bch: no primitive polynomial for m=%d (want 3..14)", m)
	}
	f := &field{m: m, n: (1 << m) - 1, poly: poly}
	f.exp = make([]int, 2*f.n)
	f.log = make([]int, f.n+1)
	x := 1
	for i := 0; i < f.n; i++ {
		f.exp[i] = x
		f.log[x] = i
		x <<= 1
		if x>>(m)&1 == 1 {
			x ^= int(poly)
		}
	}
	for i := f.n; i < 2*f.n; i++ {
		f.exp[i] = f.exp[i-f.n]
	}
	return f, nil
}

// mul multiplies two field elements (0 is absorbing).
func (f *field) mul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// inv returns the multiplicative inverse of a non-zero element.
func (f *field) inv(a int) int {
	if a == 0 {
		panic("bch: inverse of zero")
	}
	return f.exp[f.n-f.log[a]]
}

// pow returns α^e for any integer e >= 0 reduced mod the group order.
func (f *field) pow(e int) int {
	return f.exp[e%f.n]
}

// gpoly is a polynomial over GF(2), one coefficient (0/1) per entry,
// index = degree. The slice is kept trimmed (no trailing zeros) except
// for the zero polynomial, which is the empty slice.
type gpoly []byte

func (p gpoly) deg() int { return len(p) - 1 }

func (p gpoly) trim() gpoly {
	for len(p) > 0 && p[len(p)-1] == 0 {
		p = p[:len(p)-1]
	}
	return p
}

// mulGF2 multiplies two GF(2) polynomials.
func mulGF2(a, b gpoly) gpoly {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make(gpoly, len(a)+len(b)-1)
	for i, ca := range a {
		if ca == 0 {
			continue
		}
		for j, cb := range b {
			out[i+j] ^= cb
		}
	}
	return out.trim()
}

// minimalPoly returns the minimal polynomial of α^i over GF(2): the
// product of (x - α^(i·2^k)) over i's cyclotomic coset.
func (f *field) minimalPoly(i int) gpoly {
	coset := []int{}
	seen := map[int]bool{}
	c := i % f.n
	for !seen[c] {
		seen[c] = true
		coset = append(coset, c)
		c = c * 2 % f.n
	}
	// Build over GF(2^m), then verify binary coefficients.
	poly := []int{1}
	for _, e := range coset {
		root := f.pow(e)
		next := make([]int, len(poly)+1)
		for d, coef := range poly {
			next[d+1] ^= coef            // x * coef
			next[d] ^= f.mul(coef, root) // root * coef
		}
		poly = next
	}
	out := make(gpoly, len(poly))
	for d, coef := range poly {
		if coef > 1 {
			panic("bch: minimal polynomial has non-binary coefficient")
		}
		out[d] = byte(coef)
	}
	return out.trim()
}
