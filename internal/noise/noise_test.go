package noise

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGaussianCDFTail(t *testing.T) {
	g := Gaussian{Mu: 0, Sigma: 1}
	if got := g.CDF(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF(0) = %g, want 0.5", got)
	}
	if got := g.Tail(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Tail(0) = %g, want 0.5", got)
	}
	// CDF + Tail = 1 everywhere.
	for _, x := range []float64{-3, -1, 0, 0.5, 2, 10} {
		if s := g.CDF(x) + g.Tail(x); math.Abs(s-1) > 1e-12 {
			t.Errorf("CDF(%g)+Tail(%g) = %g, want 1", x, x, s)
		}
	}
	// Known value: the standard normal tail at 1.96 is ~0.025.
	if q := (Gaussian{Mu: 0, Sigma: 1}).Tail(1.96); math.Abs(q-0.0249979) > 1e-4 {
		t.Errorf("Tail(1.96) of N(0, 1) = %g, want ~0.025", q)
	}
}

func TestGaussianDegenerate(t *testing.T) {
	g := Gaussian{Mu: 2, Sigma: 0}
	if g.CDF(1) != 0 || g.CDF(2) != 1 || g.CDF(3) != 1 {
		t.Error("degenerate CDF should be a step at Mu")
	}
	if g.Tail(1) != 1 || g.Tail(3) != 0 {
		t.Error("degenerate Tail should be a step at Mu")
	}
}

func TestGaussianAddScale(t *testing.T) {
	a := Gaussian{Mu: 1, Sigma: 3}
	b := Gaussian{Mu: 2, Sigma: 4}
	s := a.Add(b)
	if s.Mu != 3 || math.Abs(s.Sigma-5) > 1e-12 {
		t.Errorf("Add = %v, want N(3, 5²)", s)
	}
	c := a.Scale(-2)
	if c.Mu != -2 || c.Sigma != 6 {
		t.Errorf("Scale = %v, want N(-2, 6²)", c)
	}
}

func TestGaussianSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := Gaussian{Mu: 3, Sigma: 0.5}
	var sum, sumSq float64
	const n = 100000
	for i := 0; i < n; i++ {
		x := g.Sample(rng)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-3) > 0.02 {
		t.Errorf("sample mean = %g, want ~3", mean)
	}
	if math.Abs(sd-0.5) > 0.02 {
		t.Errorf("sample sd = %g, want ~0.5", sd)
	}
}

// testSpec returns a valid 4-level spec resembling the baseline MLC.
func testSpec() *Spec {
	return &Spec{
		Name: "test-mlc",
		Levels: []Level{
			{Verify: ErasedMu, Sigma: ErasedSigma},
			{Verify: 2.30, Sigma: DefaultProgramSigma},
			{Verify: 2.95, Sigma: DefaultProgramSigma},
			{Verify: 3.60, Sigma: DefaultProgramSigma},
		},
		ReadRefs: []float64{2.25, 2.90, 3.55},
		Vpp:      0.15,
		Vpass:    DefaultVpass,
	}
}

func TestSpecValidate(t *testing.T) {
	s := testSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := testSpec()
	bad.ReadRefs = bad.ReadRefs[:2]
	if bad.Validate() == nil {
		t.Error("spec with wrong ref count accepted")
	}
	bad = testSpec()
	bad.ReadRefs[1] = bad.ReadRefs[0]
	if bad.Validate() == nil {
		t.Error("spec with non-ascending refs accepted")
	}
	bad = testSpec()
	bad.Levels[2].Verify = bad.Levels[1].Verify
	if bad.Validate() == nil {
		t.Error("spec with non-ascending verify accepted")
	}
	bad = testSpec()
	bad.Levels[1].Sigma = 0
	if bad.Validate() == nil {
		t.Error("spec with zero sigma accepted")
	}
	bad = testSpec()
	bad.Vpass = 1.0
	if bad.Validate() == nil {
		t.Error("spec with Vpass below top level accepted")
	}
	bad = &Spec{Name: "tiny", Levels: []Level{{Verify: 1, Sigma: 1}}}
	if bad.Validate() == nil {
		t.Error("single-level spec accepted")
	}
}

func TestSpecReadLevel(t *testing.T) {
	s := testSpec()
	cases := []struct {
		vth  float64
		want int
	}{
		{1.0, 0}, {2.24, 0}, {2.26, 1}, {2.89, 1}, {2.91, 2}, {3.54, 2}, {3.56, 3}, {4.2, 3},
	}
	for _, c := range cases {
		if got := s.ReadLevel(c.vth); got != c.want {
			t.Errorf("ReadLevel(%g) = %d, want %d", c.vth, got, c.want)
		}
	}
	if _, ok := s.ReadLevelStrict(4.5); ok {
		t.Error("ReadLevelStrict above Vpass should fail")
	}
	if lvl, ok := s.ReadLevelStrict(3.8); !ok || lvl != 3 {
		t.Errorf("ReadLevelStrict(3.8) = %d,%v, want 3,true", lvl, ok)
	}
}

func TestSpecMargins(t *testing.T) {
	s := testSpec()
	// Level 3 programmed mean = 3.60 + 0.075 = 3.675; lower ref = 3.55.
	if m := s.RetentionMargin(3); math.Abs(m-0.125) > 1e-9 {
		t.Errorf("RetentionMargin(3) = %g, want 0.125", m)
	}
	if !math.IsInf(s.RetentionMargin(0), 1) {
		t.Error("erased level should have infinite retention margin")
	}
	// Level 1 mean 2.375, upper ref 2.90 -> 0.525.
	if m := s.InterferenceMargin(1); math.Abs(m-0.525) > 1e-9 {
		t.Errorf("InterferenceMargin(1) = %g, want 0.525", m)
	}
	// Top level margin is to Vpass.
	if m := s.InterferenceMargin(3); math.Abs(m-(DefaultVpass-3.675)) > 1e-9 {
		t.Errorf("InterferenceMargin(3) = %g", m)
	}
	if !math.IsInf(s.LowerRef(0, 0), -1) {
		t.Error("LowerRef(0, 0) should be -Inf")
	}
	if s.UpperRef(3, 0) != DefaultVpass {
		t.Error("UpperRef(top, 0) should be Vpass")
	}
}

func TestC2CShiftDistribution(t *testing.T) {
	s := testSpec()
	m := DefaultC2C()
	d := m.ShiftDistribution(s)
	if d.Mu <= 0 {
		t.Errorf("C2C mean shift = %g, want positive", d.Mu)
	}
	if d.Sigma <= 0 {
		t.Errorf("C2C shift sigma = %g, want positive", d.Sigma)
	}
	// Residual scaling must scale the distribution linearly.
	m2 := m
	m2.Residual = m.Residual / 2
	d2 := m2.ShiftDistribution(s)
	if math.Abs(d2.Mu*2-d.Mu) > 1e-12 || math.Abs(d2.Sigma*2-d.Sigma) > 1e-12 {
		t.Error("Residual should scale the shift distribution linearly")
	}
}

func TestC2CShiftMatchesMonteCarlo(t *testing.T) {
	s := testSpec()
	m := DefaultC2C()
	want := m.ShiftDistribution(s)
	rng := rand.New(rand.NewSource(7))
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := m.SampleShift(s, rng)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-want.Mu) > 0.005 {
		t.Errorf("sampled C2C mean = %g, analytic %g", mean, want.Mu)
	}
	// The analytic model is a CLT Gaussian over a discrete mixture, so
	// allow a generous band on the spread.
	if math.Abs(sd-want.Sigma) > 0.25*want.Sigma {
		t.Errorf("sampled C2C sd = %g, analytic %g", sd, want.Sigma)
	}
}

func TestC2CLevelErrorOrdering(t *testing.T) {
	s := testSpec()
	m := DefaultC2C()
	// Middle levels (small margins) must err more than the top level
	// (margin to Vpass is larger).
	p1 := m.LevelErrorProb(s, 1, 0)
	p3 := m.LevelErrorProb(s, 3, 0)
	if p1 <= p3 {
		t.Errorf("C2C p(level1)=%g should exceed p(level3)=%g", p1, p3)
	}
	for i := 0; i < s.NumLevels(); i++ {
		p := m.LevelErrorProb(s, i, 0)
		if p < 0 || p > 1 {
			t.Errorf("p(level %d) = %g out of range", i, p)
		}
	}
}

func TestRetentionShiftProperties(t *testing.T) {
	r := DefaultRetention()
	// No time or cycles -> no shift.
	if d := r.Shift(3.6, 0, 24); d.Mu != 0 || d.Sigma != 0 {
		t.Error("no P/E cycles should give zero shift")
	}
	if d := r.Shift(3.6, 3000, 0); d.Mu != 0 || d.Sigma != 0 {
		t.Error("zero hours should give zero shift")
	}
	if d := r.Shift(1.0, 3000, 24); d.Mu != 0 {
		t.Error("x below x0 should give zero shift")
	}
	// Shift grows with time, cycles and level.
	base := r.Shift(3.6, 3000, 24)
	if d := r.Shift(3.6, 3000, 720); d.Mu <= base.Mu {
		t.Error("shift should grow with storage time")
	}
	if d := r.Shift(3.6, 6000, 24); d.Mu <= base.Mu {
		t.Error("shift should grow with P/E cycles")
	}
	if d := r.Shift(2.3, 3000, 24); d.Mu >= base.Mu {
		t.Error("shift should grow with initial Vth")
	}
}

func TestRetentionShiftMagnitude(t *testing.T) {
	// Hand-computed from Eq. 3: x=3.675, x0=1.1, N=2000, t=24h.
	r := DefaultRetention()
	d := r.Shift(3.675, 2000, 24)
	// mu = 0.333*2.575*4e-4*2000^0.4*ln(25)
	wantMu := 0.333 * 2.575 * 4e-4 * math.Pow(2000, 0.4) * math.Log(25)
	if math.Abs(d.Mu-wantMu) > 1e-9 {
		t.Errorf("Shift.Mu = %g, want %g", d.Mu, wantMu)
	}
	wantVar := 0.333 * 2.575 * 2e-6 * math.Pow(2000, 0.5) * math.Log(25)
	if math.Abs(d.Sigma*d.Sigma-wantVar) > 1e-12 {
		t.Errorf("Shift variance = %g, want %g", d.Sigma*d.Sigma, wantVar)
	}
}

func TestRetentionLevelErrorMonotone(t *testing.T) {
	s := testSpec()
	r := DefaultRetention()
	if p := r.LevelErrorProb(s, 0, 5000, 720, 0); p != 0 {
		t.Errorf("erased level retention error = %g, want 0", p)
	}
	// Higher level -> larger (x-x0) -> more errors (same margins).
	p1 := r.LevelErrorProb(s, 1, 5000, 720, 0)
	p3 := r.LevelErrorProb(s, 3, 5000, 720, 0)
	if p3 <= p1 {
		t.Errorf("retention p(level3)=%g should exceed p(level1)=%g", p3, p1)
	}
	// More time -> more errors.
	if a, b := r.LevelErrorProb(s, 3, 5000, 24, 0), r.LevelErrorProb(s, 3, 5000, 720, 0); b <= a {
		t.Errorf("retention should grow with time: %g vs %g", a, b)
	}
	// More cycles -> more errors.
	if a, b := r.LevelErrorProb(s, 3, 2000, 168, 0), r.LevelErrorProb(s, 3, 6000, 168, 0); b <= a {
		t.Errorf("retention should grow with P/E: %g vs %g", a, b)
	}
}

func TestEncodingValidate(t *testing.T) {
	if err := MLCGray().Validate(); err != nil {
		t.Errorf("MLCGray invalid: %v", err)
	}
	bad := Encoding{Name: "bad", Occupancy: []float64{0.5, 0.4}, BitsPerCell: 2, BitErrorsPerLevelError: 1}
	if bad.Validate() == nil {
		t.Error("occupancy not summing to 1 accepted")
	}
	bad = Encoding{Name: "bad", Occupancy: []float64{1.5, -0.5}, BitsPerCell: 2}
	if bad.Validate() == nil {
		t.Error("negative occupancy accepted")
	}
	bad = Encoding{Name: "bad", Occupancy: []float64{1}, BitsPerCell: 0}
	if bad.Validate() == nil {
		t.Error("zero bits per cell accepted")
	}
	if (Encoding{Name: "empty"}).Validate() == nil {
		t.Error("empty occupancy accepted")
	}
}

func TestNewBERModelRejectsMismatch(t *testing.T) {
	s := testSpec()
	threeLevel := Encoding{
		Name:                   "three",
		Occupancy:              []float64{0.4, 0.3, 0.3},
		BitsPerCell:            1.5,
		BitErrorsPerLevelError: 1,
	}
	if _, err := NewBERModel(s, threeLevel); err == nil {
		t.Error("level-count mismatch accepted")
	}
	if _, err := NewBERModel(s, MLCGray()); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

func TestBERModelBasics(t *testing.T) {
	m, err := NewBERModel(testSpec(), MLCGray())
	if err != nil {
		t.Fatal(err)
	}
	c2c := m.C2CBER()
	if c2c <= 0 || c2c > 0.01 {
		t.Errorf("baseline C2C BER = %g, want in (0, 1e-2]", c2c)
	}
	// Retention BER grows with both axes.
	grid := [][2]float64{{2000, 24}, {2000, 720}, {6000, 24}, {6000, 720}}
	prevDiag := -1.0
	for _, g := range grid {
		ber := m.RetentionBER(int(g[0]), g[1])
		if ber < 0 || ber > 0.5 {
			t.Errorf("retention BER(%v) = %g out of range", g, ber)
		}
		_ = prevDiag
	}
	if a, b := m.RetentionBER(2000, 24), m.RetentionBER(6000, 720); b <= a {
		t.Errorf("retention BER should grow along the diagonal: %g vs %g", a, b)
	}
	if tot := m.TotalBER(3000, 24); math.Abs(tot-(m.C2CBER()+m.RetentionBER(3000, 24))) > 1e-15 {
		t.Error("TotalBER should be the sum of the two components")
	}
}

func TestRetentionLevelShare(t *testing.T) {
	m, err := NewBERModel(testSpec(), MLCGray())
	if err != nil {
		t.Fatal(err)
	}
	shares := m.RetentionLevelShare(4000, 168)
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
	// The top level must dominate (paper: 78% at the highest level under
	// basic LevelAdjust; same mechanism on 4-level MLC).
	if shares[3] <= shares[1] {
		t.Errorf("top level share %g should dominate level-1 share %g", shares[3], shares[1])
	}
	if shares[0] != 0 {
		t.Errorf("erased level share = %g, want 0", shares[0])
	}
}

func TestMonteCarloAgreesWithAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("monte carlo is slow")
	}
	m, err := NewBERModel(testSpec(), MLCGray())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	const cells = 400000
	pe, hours := 6000, 720.0
	res := m.MonteCarloBER(cells, pe, hours, rng)
	analytic := m.TotalBER(pe, hours)
	if res.BER <= 0 {
		t.Fatalf("monte carlo BER = %g, want positive", res.BER)
	}
	ratio := res.BER / analytic
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("monte carlo BER %g vs analytic %g (ratio %.2f) disagree beyond 2x",
			res.BER, analytic, ratio)
	}
}

func TestLevelErrorProbWithinUnitInterval(t *testing.T) {
	s := testSpec()
	c2c := DefaultC2C()
	ret := DefaultRetention()
	f := func(peRaw uint16, hoursRaw uint16, lvlRaw uint8) bool {
		pe := int(peRaw)
		hours := float64(hoursRaw)
		lvl := int(lvlRaw) % s.NumLevels()
		p := c2c.LevelErrorProb(s, lvl, 0)
		q := ret.LevelErrorProb(s, lvl, pe, hours, 0)
		return p >= 0 && p <= 1 && q >= 0 && q <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
