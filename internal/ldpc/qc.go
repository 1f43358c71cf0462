package ldpc

import (
	"fmt"
	"math/rand"
)

// QCParams configures a quasi-cyclic construction: the parity-check
// matrix is a J x L grid of Z x Z blocks, each either zero or a
// cyclically shifted identity. QC codes are what flash controllers
// actually ship (the shift structure maps onto hardware barrel
// shifters); this construction exists alongside the IRA default so the
// repertoire matches real deployments, and the benches compare the two.
type QCParams struct {
	J    int   // block rows (check blocks)
	L    int   // block columns (variable blocks)
	Z    int   // circulant size
	Seed int64 // shift selection seed
}

// Validate reports structural problems.
func (p QCParams) Validate() error {
	if p.J < 2 || p.L <= p.J {
		return fmt.Errorf("ldpc: qc grid %dx%d needs J >= 2 and L > J", p.J, p.L)
	}
	if p.Z < 2 || !isPrime(p.Z) {
		return fmt.Errorf("ldpc: circulant size %d must be prime (array-code girth guarantee)", p.Z)
	}
	if p.Z < p.L-p.J {
		return fmt.Errorf("ldpc: circulant size %d below data block count %d", p.Z, p.L-p.J)
	}
	return nil
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// NewQC constructs a quasi-cyclic code. The last J block columns carry
// an accumulator-style dual-diagonal structure so encoding stays linear
// time via the same back-substitution as the IRA construction; the
// first L-J block columns are data, each with one shifted identity per
// block row (column weight J).
//
// Shifts follow the array-code construction shift(j,l) = j·l + r_l
// (mod Z) with prime Z: for any two block rows j1 != j2 the shift
// differences (j1-j2)·l are distinct across block columns, so no
// 4-cycle can form between data blocks. The per-column random offset
// r_l (from Seed) varies the code without touching that guarantee.
func NewQC(p QCParams) (*Code, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	k := (p.L - p.J) * p.Z
	m := p.J * p.Z
	c := &Code{K: k, M: m, N: k + m}
	c.checkVars = make([][]int32, c.M)
	c.varChecks = make([][]int32, c.N)

	// Array-code shifts with per-column random offsets.
	shifts := make([][]int, p.J)
	offsets := make([]int, p.L-p.J)
	for l := range offsets {
		offsets[l] = rng.Intn(p.Z)
	}
	for j := range shifts {
		shifts[j] = make([]int, p.L-p.J)
		for l := range shifts[j] {
			shifts[j][l] = mod(j*l+offsets[l], p.Z)
		}
	}

	addEdge := func(check, v int) {
		c.checkVars[check] = append(c.checkVars[check], int32(v))
		c.varChecks[v] = append(c.varChecks[v], int32(check))
	}
	// Data blocks: shifted identities.
	for j := 0; j < p.J; j++ {
		for l := 0; l < p.L-p.J; l++ {
			s := shifts[j][l]
			for r := 0; r < p.Z; r++ {
				check := j*p.Z + r
				v := l*p.Z + (r+s)%p.Z
				addEdge(check, v)
			}
		}
	}
	// Parity part: global accumulator chain across all m checks (check
	// i covers parity i and i-1), which keeps the encoder shared with
	// the IRA construction.
	for i := 0; i < c.M; i++ {
		addEdge(i, c.K+i)
		if i > 0 {
			addEdge(i, c.K+i-1)
		}
	}
	return c, nil
}

func mod(a, z int) int {
	a %= z
	if a < 0 {
		a += z
	}
	return a
}
