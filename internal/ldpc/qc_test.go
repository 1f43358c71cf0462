package ldpc

import (
	"bytes"
	"math/rand"
	"testing"
)

func qcCode(t *testing.T) *Code {
	t.Helper()
	p := QCParams{J: 4, L: 36, Z: 37, Seed: 5} // n = 1332, rate 8/9
	c, err := NewQC(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestQCValidation(t *testing.T) {
	cases := []QCParams{
		{J: 1, L: 8, Z: 16},
		{J: 4, L: 4, Z: 16},
		{J: 4, L: 36, Z: 1},
		{J: 4, L: 36, Z: 36}, // composite Z rejected
		{J: 4, L: 40, Z: 31}, // Z below data block count
	}
	for i, p := range cases {
		if _, err := NewQC(p); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
	// A rate-8/9 layout: 4 x 36 blocks with a prime circulant size 127
	// (n = 4572). Scaling Z toward 1021 approaches the paper's
	// 36864-bit codeword.
	paper := QCParams{J: 4, L: 36, Z: 127, Seed: 20150607}
	if err := paper.Validate(); err != nil {
		t.Errorf("paper QC params invalid: %v", err)
	}
}

func TestQCStructure(t *testing.T) {
	c := qcCode(t)
	if c.N != 36*37 || c.K != 32*37 || c.M != 4*37 {
		t.Fatalf("dims n=%d k=%d m=%d", c.N, c.K, c.M)
	}
	if r := c.Rate(); r < 0.88 || r > 0.90 {
		t.Errorf("rate = %g, want ~8/9", r)
	}
	// Every data variable has column weight J = 4.
	for v := 0; v < c.K; v++ {
		if len(c.varChecks[v]) != 4 {
			t.Fatalf("data var %d weight %d, want 4", v, len(c.varChecks[v]))
		}
	}
	// Check degrees are uniform across a block row (QC regularity):
	// each check covers L-J data bits + 1 or 2 accumulator bits.
	for ci, vars := range c.checkVars {
		dataDeg := 0
		for _, v := range vars {
			if int(v) < c.K {
				dataDeg++
			}
		}
		if dataDeg != 32 {
			t.Fatalf("check %d data degree %d, want L-J=32", ci, dataDeg)
		}
	}
}

func TestQCDeterministic(t *testing.T) {
	p := QCParams{J: 4, L: 12, Z: 17, Seed: 9}
	a, err := NewQC(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewQC(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Edges() != b.Edges() {
		t.Fatal("construction not deterministic")
	}
	for i := range a.checkVars {
		for j := range a.checkVars[i] {
			if a.checkVars[i][j] != b.checkVars[i][j] {
				t.Fatal("construction not deterministic")
			}
		}
	}
}

func TestQCEncodeDecode(t *testing.T) {
	c := qcCode(t)
	d := NewDecoder(c)
	rng := rand.New(rand.NewSource(6))
	success := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		data := randomBits(c.K, rng)
		cw, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Syndrome(cw) {
			t.Fatal("QC codeword fails parity")
		}
		noisy := make([]byte, len(cw))
		copy(noisy, cw)
		for i := 0; i < 7; i++ {
			noisy[rng.Intn(c.N)] ^= 1
		}
		res, err := d.Decode(HardToLLR(noisy, BSCLLR(0.006)))
		if err != nil {
			t.Fatal(err)
		}
		if res.OK && bytes.Equal(res.Data, data) {
			success++
		}
	}
	if success < trials-3 {
		t.Errorf("QC decode corrected %d/%d", success, trials)
	}
}

func TestQCNoFourCyclesInDataBlocks(t *testing.T) {
	// Verify the girth guard: no two data variables share two checks.
	c := qcCode(t)
	seen := map[[2]int32]int32{} // (check pair) -> variable
	for v := 0; v < c.K; v++ {
		checks := c.varChecks[v]
		for i := 0; i < len(checks); i++ {
			for j := i + 1; j < len(checks); j++ {
				key := [2]int32{checks[i], checks[j]}
				if other, ok := seen[key]; ok {
					t.Fatalf("4-cycle: vars %d and %d share checks %v", other, v, key)
				}
				seen[key] = int32(v)
			}
		}
	}
}
