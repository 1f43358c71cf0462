package device

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"flexlevel/internal/ldpc"
	"flexlevel/internal/nand"
	"flexlevel/internal/noise"
	"flexlevel/internal/nunma"
)

const cols = 1024

// codeFor builds a rate-8/9 code exactly filling one wordline.
func codeFor(t *testing.T, state nand.CellState) *ldpc.Code {
	t.Helper()
	n := WordlineBits(cols, state)
	m := n / 9
	code, err := ldpc.New(ldpc.Params{InfoBits: n - m, ParityBits: m, ColWeight: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func newArray(t *testing.T, rows int) *nand.Array {
	t.Helper()
	cfg, err := nunma.ByName("NUNMA 3")
	if err != nil {
		t.Fatal(err)
	}
	a, err := nand.NewArray(rows, cols, nunma.BaselineMLC(), cfg.Spec(), 77)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func randomData(k int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, k)
	for i := range data {
		data[i] = byte(rng.Intn(2))
	}
	return data
}

func TestWordlineBits(t *testing.T) {
	if got := WordlineBits(1024, nand.Normal); got != 2048 {
		t.Errorf("normal capacity = %d, want 2048", got)
	}
	if got := WordlineBits(1024, nand.Reduced); got != 1536 {
		t.Errorf("reduced capacity = %d, want 1536 (3 bits per pair)", got)
	}
}

func TestNewPageCodecValidation(t *testing.T) {
	a := newArray(t, 1)
	wrong, err := ldpc.New(ldpc.Params{InfoBits: 100, ParityBits: 20, ColWeight: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPageCodec(a, wrong, nand.Normal); err == nil {
		t.Error("mismatched code length accepted")
	}
}

func TestNormalPageRoundTripFresh(t *testing.T) {
	a := newArray(t, 1)
	code := codeFor(t, nand.Normal)
	pc, err := NewPageCodec(a, code, nand.Normal)
	if err != nil {
		t.Fatal(err)
	}
	data := randomData(code.K, 1)
	if err := pc.WritePage(0, data); err != nil {
		t.Fatal(err)
	}
	res, err := pc.ReadPage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || !bytes.Equal(res.Data, data) {
		t.Fatal("fresh normal page failed hard-decision read")
	}
}

func TestReducedPageRoundTripFresh(t *testing.T) {
	a := newArray(t, 1)
	if err := a.SetRowState(0, nand.Reduced); err != nil {
		t.Fatal(err)
	}
	code := codeFor(t, nand.Reduced)
	pc, err := NewPageCodec(a, code, nand.Reduced)
	if err != nil {
		t.Fatal(err)
	}
	data := randomData(code.K, 2)
	if err := pc.WritePage(0, data); err != nil {
		t.Fatal(err)
	}
	res, err := pc.ReadPage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || !bytes.Equal(res.Data, data) {
		t.Fatal("fresh reduced page failed hard-decision read")
	}
}

// TestPremiseEndToEnd is the mechanical demonstration of the paper's
// premise: at heavy wear and long retention, an aged NORMAL page needs
// soft sensing (and may still fail), while a NUNMA-3 REDUCED page under
// identical stress decodes with plain hard-decision sensing.
func TestPremiseEndToEnd(t *testing.T) {
	const (
		pe    = 6000
		hours = 720 // the paper's worst corner: P/E 6000, 1 month
	)
	// Reduced page under stress: must decode at 0 extra levels.
	{
		a := newArray(t, 1)
		a.SetPECycles(pe)
		if err := a.SetRowState(0, nand.Reduced); err != nil {
			t.Fatal(err)
		}
		code := codeFor(t, nand.Reduced)
		pc, err := NewPageCodec(a, code, nand.Reduced)
		if err != nil {
			t.Fatal(err)
		}
		data := randomData(code.K, 3)
		if err := pc.WritePage(0, data); err != nil {
			t.Fatal(err)
		}
		a.Age(hours)
		res, err := pc.ReadPage(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK || !bytes.Equal(res.Data, data) {
			t.Error("reduced page under stress failed at hard decision; NUNMA 3 premise broken")
		}
	}
	// Normal pages under the same stress: hard decision fails on most
	// trials, adaptive soft sensing recovers more.
	hardOK, softOK := 0, 0
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		a := newArray(t, 1)
		a.SetPECycles(pe)
		code := codeFor(t, nand.Normal)
		pc, err := NewPageCodec(a, code, nand.Normal)
		if err != nil {
			t.Fatal(err)
		}
		data := randomData(code.K, int64(100+trial))
		if err := pc.WritePage(0, data); err != nil {
			t.Fatal(err)
		}
		a.Age(hours)
		hard, err := pc.ReadPage(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if hard.OK && bytes.Equal(hard.Data, data) {
			hardOK++
		}
		soft, _, err := pc.ReadPageAdaptive(0, 6)
		if err != nil {
			t.Fatal(err)
		}
		if soft.OK && bytes.Equal(soft.Data, data) {
			softOK++
		}
	}
	if softOK < hardOK {
		t.Errorf("soft sensing recovered %d/%d vs hard %d/%d; escalation should not hurt",
			softOK, trials, hardOK, trials)
	}
	if hardOK > trials/2 {
		t.Errorf("stressed normal pages decoded at hard decision %d/%d times; "+
			"the premise demo needs hard-decision failures at this corner", hardOK, trials)
	}
	if softOK < trials-1 {
		t.Errorf("soft sensing recovered only %d/%d pages; LLR pipeline suspect", softOK, trials)
	}
}

func TestReadPageAdaptiveStopsEarly(t *testing.T) {
	a := newArray(t, 1)
	code := codeFor(t, nand.Normal)
	pc, err := NewPageCodec(a, code, nand.Normal)
	if err != nil {
		t.Fatal(err)
	}
	data := randomData(code.K, 5)
	if err := pc.WritePage(0, data); err != nil {
		t.Fatal(err)
	}
	res, levels, err := pc.ReadPageAdaptive(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || levels != 0 {
		t.Errorf("fresh page adaptive read used %d levels, want 0", levels)
	}
}

func TestStateMismatchRejected(t *testing.T) {
	a := newArray(t, 2)
	code := codeFor(t, nand.Normal)
	pc, err := NewPageCodec(a, code, nand.Normal)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetRowState(1, nand.Reduced); err != nil {
		t.Fatal(err)
	}
	if err := pc.WritePage(1, randomData(code.K, 6)); err == nil {
		t.Error("write to reduced row with normal codec accepted")
	}
	if _, err := pc.ReadPage(1, 0); err == nil {
		t.Error("read of reduced row with normal codec accepted")
	}
}

func TestRowOutOfRange(t *testing.T) {
	a := newArray(t, 1)
	code := codeFor(t, nand.Normal)
	pc, err := NewPageCodec(a, code, nand.Normal)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{-1, a.Rows} {
		if err := pc.WritePage(r, randomData(code.K, 8)); err == nil {
			t.Errorf("WritePage(%d) on a %d-row array accepted", r, a.Rows)
		}
		if _, err := pc.ReadPage(r, 0); err == nil {
			t.Errorf("ReadPage(%d) on a %d-row array accepted", r, a.Rows)
		}
	}
}

func TestMoreLevelsMoreInformative(t *testing.T) {
	// The sensor's bin count grows with extra levels, and posteriors
	// stay normalized.
	spec := nunma.BaselineMLC()
	for _, extra := range []int{0, 2, 5} {
		s := newSoftSensor(spec, extra, 0.06)
		wantBounds := (extra + 1) * len(spec.ReadRefs)
		if len(s.bounds) != wantBounds {
			t.Errorf("extra=%d: %d bounds, want %d", extra, len(s.bounds), wantBounds)
		}
		for bin, post := range s.post {
			sum := 0.0
			for _, p := range post {
				sum += p
			}
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("extra=%d bin %d posterior sums to %g", extra, bin, sum)
			}
		}
	}
}

func TestSoftSensorStructure(t *testing.T) {
	// Each read reference gets extra+1 sensing bounds, delta apart and
	// centred on the reference.
	const delta = 0.06
	spec := nunma.BaselineMLC()
	for _, extra := range []int{0, 2, 5} {
		s := newSoftSensor(spec, extra, delta)
		if want := (extra + 1) * len(spec.ReadRefs); len(s.bounds) != want {
			t.Fatalf("extra=%d: %d bounds, want %d", extra, len(s.bounds), want)
		}
		for i, ref := range spec.ReadRefs {
			group := s.bounds[i*(extra+1) : (i+1)*(extra+1)]
			for k := 1; k < len(group); k++ {
				if d := group[k] - group[k-1]; math.Abs(d-delta) > 1e-12 {
					t.Errorf("extra=%d ref %g: bound spacing %g, want %g", extra, ref, d, delta)
				}
			}
			if mid := (group[0] + group[len(group)-1]) / 2; math.Abs(mid-ref) > 1e-12 {
				t.Errorf("extra=%d: bounds centred at %g, want %g", extra, mid, ref)
			}
		}
	}
}

func TestSoftSensorWeakestAtReference(t *testing.T) {
	// Soft sensing's value: with the read reference at the crossover of
	// two equal-sigma levels, the bin holding the reference straddles
	// both, so its most likely level is far less certain than in the
	// outermost bins, which lie beyond every reference.
	spec := &noise.Spec{
		Levels: []noise.Level{{Verify: 2.375, Sigma: 0.08}, {Verify: 2.95, Sigma: 0.08}},
		Vpp:    0.15, // programmed level 1 centres at 3.025
		Vpass:  noise.DefaultVpass,
	}
	spec.ReadRefs = []float64{(spec.Programmed(0).Mu + spec.Programmed(1).Mu) / 2}
	for _, extra := range []int{2, 5} {
		s := newSoftSensor(spec, extra, 0.06)
		near := slices.Max(s.levelPosterior(spec.ReadRefs[0]))
		far := math.Min(slices.Max(s.post[0]), slices.Max(s.post[len(s.post)-1]))
		if near >= far {
			t.Errorf("extra=%d: max posterior %g at the reference, want below %g far from it", extra, near, far)
		}
	}
}

func TestMLCBitLLRSigns(t *testing.T) {
	// Posterior concentrated on level 0 (bits 11): both LLRs negative.
	msb, lsb := mlcBitLLRs([]float64{1, 0, 0, 0})
	if msb >= 0 || lsb >= 0 {
		t.Errorf("level-0 LLRs = %g/%g, want negative (bits 1)", msb, lsb)
	}
	// Level 2 (bits 00): both positive.
	msb, lsb = mlcBitLLRs([]float64{0, 0, 1, 0})
	if msb <= 0 || lsb <= 0 {
		t.Errorf("level-2 LLRs = %g/%g, want positive (bits 0)", msb, lsb)
	}
}

func TestReduceCodeBitLLRs(t *testing.T) {
	// Cells certainly at (0,0): codeword 000 -> all three LLRs positive.
	llrs := reduceCodeBitLLRs([]float64{1, 0, 0}, []float64{1, 0, 0})
	for b, l := range llrs {
		if l <= 0 {
			t.Errorf("bit %d LLR = %g, want positive for codeword 000", b, l)
		}
	}
	// Cells at (2,2): codeword 100 -> MSB negative, others positive.
	llrs = reduceCodeBitLLRs([]float64{0, 0, 1}, []float64{0, 0, 1})
	if llrs[0] >= 0 {
		t.Errorf("MSB LLR = %g, want negative for codeword 100", llrs[0])
	}
	if llrs[1] <= 0 || llrs[2] <= 0 {
		t.Errorf("LSB LLRs = %g/%g, want positive for codeword 100", llrs[1], llrs[2])
	}
}
