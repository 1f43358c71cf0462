package uber_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFieldBasics(t *testing.T) {
	f, err := newField(8)
	if err != nil {
		t.Fatal(err)
	}
	if f.n != 255 {
		t.Fatalf("n = %d, want 255", f.n)
	}
	// Every non-zero element has exp(log(x)) = x.
	for x := 1; x <= f.n; x++ {
		if f.exp[f.log[x]] != x {
			t.Fatalf("exp/log inconsistent at %d", x)
		}
	}
	// Inverses: x * x^-1 = 1.
	for x := 1; x <= f.n; x++ {
		if f.mul(x, f.inv(x)) != 1 {
			t.Fatalf("inv broken at %d", x)
		}
	}
	// α^n = 1 (group order).
	if f.pow(f.n) != 1 {
		t.Error("α^n != 1")
	}
	if _, err := newField(2); err == nil {
		t.Error("m=2 accepted")
	}
	if _, err := newField(20); err == nil {
		t.Error("m=20 accepted")
	}
}

func TestFieldMulCommutesAndDistributes(t *testing.T) {
	f, err := newField(6)
	if err != nil {
		t.Fatal(err)
	}
	g := func(aRaw, bRaw, cRaw uint8) bool {
		a, b, c := int(aRaw)%64, int(bRaw)%64, int(cRaw)%64
		if f.mul(a, b) != f.mul(b, a) {
			return false
		}
		// Distributivity over XOR (field addition).
		return f.mul(a, b^c) == f.mul(a, b)^f.mul(a, c)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestMinimalPolyDividesXnMinus1(t *testing.T) {
	f, err := newField(6)
	if err != nil {
		t.Fatal(err)
	}
	// Every minimal polynomial must have α^i as a root (evaluate over
	// the extension field).
	for _, i := range []int{1, 3, 5, 7} {
		mp := f.minimalPoly(i)
		v := 0
		for d, coef := range mp {
			if coef == 1 {
				v ^= f.pow(i * d)
			}
		}
		if v != 0 {
			t.Errorf("minimalPoly(%d) does not vanish at α^%d", i, i)
		}
		// Degree divides m.
		if 6%mp.deg() != 0 && mp.deg() != 6 {
			t.Errorf("minimalPoly(%d) degree %d does not divide m", i, mp.deg())
		}
	}
}

func TestNewKnownCodes(t *testing.T) {
	// Classic parameters: (15,7) t=2, (15,5) t=3, (255,239) t=2,
	// (255,231) t=3, plus a GF(2^15) instance: the field the hard-ECC
	// study sizes its equal-parity BCH code in.
	cases := []struct{ m, t, wantN, wantK int }{
		{4, 2, 15, 7},
		{4, 3, 15, 5},
		{8, 2, 255, 239},
		{8, 3, 255, 231},
		{8, 8, 255, 191},
		{15, 24, 32767, 32407},
	}
	for _, c := range cases {
		code, err := New(c.m, c.t)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", c.m, c.t, err)
		}
		if code.N != c.wantN || code.K != c.wantK {
			t.Errorf("BCH(m=%d,t=%d) = (%d,%d), want (%d,%d)",
				c.m, c.t, code.N, code.K, c.wantN, c.wantK)
		}
		if code.ParityBits() != c.wantN-c.wantK {
			t.Errorf("ParityBits = %d", code.ParityBits())
		}
	}
	if _, err := New(4, 0); err == nil {
		t.Error("t=0 accepted")
	}
	// m=3, t=3 is the degenerate-but-legal (7,1) repetition code.
	if code, err := New(3, 3); err != nil || code.K != 1 {
		t.Errorf("BCH(7,1) repetition code rejected: %v", err)
	}
	if _, err := New(3, 4); err == nil {
		t.Error("over-large t accepted (no info bits left)")
	}
}

func randBits(n int, rng *rand.Rand) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(2))
	}
	return b
}

func TestEncodeProducesCodewords(t *testing.T) {
	code, err := New(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		data := randBits(code.K, rng)
		cw, err := code.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !code.IsCodeword(cw) {
			t.Fatal("encoded word fails syndrome check")
		}
		if !bytes.Equal(cw[code.N-code.K:], data) {
			t.Fatal("encoding not systematic")
		}
	}
	if _, err := code.Encode(make([]byte, 3)); err == nil {
		t.Error("wrong data length accepted")
	}
}

func TestDecodeCorrectsUpToT(t *testing.T) {
	code, err := New(8, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for errs := 0; errs <= code.T; errs++ {
		for trial := 0; trial < 10; trial++ {
			data := randBits(code.K, rng)
			cw, err := code.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			noisy := make([]byte, len(cw))
			copy(noisy, cw)
			flips := rng.Perm(code.N)[:errs]
			for _, p := range flips {
				noisy[p] ^= 1
			}
			res, err := code.Decode(noisy)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK {
				t.Fatalf("decode failed at %d <= t errors", errs)
			}
			if res.Corrected != errs {
				t.Fatalf("corrected %d, want %d", res.Corrected, errs)
			}
			if !bytes.Equal(res.Data, data) {
				t.Fatalf("data corrupted at %d errors", errs)
			}
		}
	}
}

func TestDecodeDetectsBeyondT(t *testing.T) {
	code, err := New(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	miscorrected, caught := 0, 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		data := randBits(code.K, rng)
		cw, _ := code.Encode(data)
		noisy := make([]byte, len(cw))
		copy(noisy, cw)
		for _, p := range rng.Perm(code.N)[:code.T+2] {
			noisy[p] ^= 1
		}
		res, err := code.Decode(noisy)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !res.OK:
			caught++
		case !bytes.Equal(res.Data, data):
			miscorrected++ // decoded to a different codeword: inherent
		}
	}
	// Bounded-distance decoding must flag most overloads; some land in
	// another codeword's sphere (undetectable by any decoder).
	if caught < trials/2 {
		t.Errorf("only %d/%d overloaded words flagged (%d miscorrected)",
			caught, trials, miscorrected)
	}
}

func TestDecodeWrongLength(t *testing.T) {
	code, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := code.Decode(make([]byte, 3)); err == nil {
		t.Error("wrong length accepted")
	}
	if code.IsCodeword(make([]byte, 3)) {
		t.Error("wrong length passed syndrome check")
	}
}

func TestRate(t *testing.T) {
	code, err := New(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r := code.Rate(); r < 0.93 || r > 0.94 {
		t.Errorf("rate = %g, want 239/255", r)
	}
}

// Property: decode(encode(x) + up to t flips) == x for arbitrary data.
func TestDecodeProperty(t *testing.T) {
	code, err := New(6, 3) // (63, 45)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []byte, flipRaw [3]uint16, nFlips uint8) bool {
		data := make([]byte, code.K)
		for i := range data {
			if i < len(raw) {
				data[i] = raw[i] & 1
			}
		}
		cw, err := code.Encode(data)
		if err != nil {
			return false
		}
		n := int(nFlips) % (code.T + 1)
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			p := int(flipRaw[i]) % code.N
			if seen[p] {
				continue // duplicate flip would cancel; skip
			}
			seen[p] = true
			cw[p] ^= 1
		}
		res, err := code.Decode(cw)
		if err != nil || !res.OK {
			return false
		}
		return bytes.Equal(res.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
