package uber_test

import (
	"math"
	"math/rand"
	"testing"

	"flexlevel/internal/ldpc"
	"flexlevel/internal/uber"
)

// TestTailMatchesBCH checks Eq. 1's binomial tail against a real
// hard-decision decoder. A bounded-distance BCH decoder fails exactly
// when more than t of the n codeword bits flip, so over a binary
// symmetric channel its frame error rate is P(X > t), X ~ Bin(n, p):
// UBER(code, t, p) times the information length. The simulated FER at
// a fixed seed must lie within tolSigma binomial standard errors of
// that tail at every BER.
func TestTailMatchesBCH(t *testing.T) {
	const (
		frames   = 4000
		tolSigma = 4
	)
	code, err := New(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	tail := uber.Code{InfoBits: code.K, TotalBits: code.N}
	if tail != (uber.Code{InfoBits: 191, TotalBits: 255}) || code.T != 8 {
		t.Fatalf("BCH(%d,%d) t=%d, want BCH(255,191) t=8", code.N, code.K, code.T)
	}
	decode := func(cw []byte) (ldpc.Result, error) {
		res, err := code.Decode(cw)
		return ldpc.Result{Data: res.Data, OK: res.OK}, err
	}
	for _, p := range []float64{0.01, 0.015, 0.02, 0.03, 0.04} {
		want := uber.UBER(tail, code.T, p) * float64(code.K)
		res, err := ldpc.SimulateBSC(code.K, code.Encode, decode, p, frames, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		sigma := math.Sqrt(want * (1 - want) / frames)
		z := (res.FER() - want) / sigma
		t.Logf("p=%.3f: FER %.4f, tail %.4f (%+.1fσ)", p, res.FER(), want, z)
		if math.Abs(z) > tolSigma {
			t.Errorf("p=%.3f: BCH FER %.4f over %d frames is %.1fσ from the binomial tail %.4f",
				p, res.FER(), frames, z, want)
		}
	}
}
