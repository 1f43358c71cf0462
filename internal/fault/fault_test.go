package fault

import (
	"math"
	"math/rand"
	"testing"
)

// wornCurve is a representative wear-scaled curve for tests.
func wornCurve() RateCurve {
	return RateCurve{Base: 1e-3, Amp: 0.1, Scale: 6000, Shape: 3}
}

func TestRateCurveProb(t *testing.T) {
	var zero RateCurve
	if !zero.Zero() || zero.Prob(100000) != 0 {
		t.Error("zero curve fired")
	}
	c := wornCurve()
	if c.Zero() {
		t.Error("nonzero curve reports Zero")
	}
	// Monotone non-decreasing in wear, bracketed by Base and Base+Amp.
	last := -1.0
	for pe := 0; pe <= 20000; pe += 500 {
		p := c.Prob(pe)
		if p < last {
			t.Fatalf("Prob not monotone at pe=%d: %g < %g", pe, p, last)
		}
		if p < c.Base || p > c.Base+c.Amp {
			t.Fatalf("Prob(%d)=%g outside [Base, Base+Amp]", pe, p)
		}
		last = p
	}
	if got := c.Prob(0); got != c.Base {
		t.Errorf("Prob(0)=%g, want Base %g", got, c.Base)
	}
	// Shape<=0 falls back to the exponential special case.
	e := RateCurve{Amp: 0.5, Scale: 1000}
	want := 0.5 * (1 - math.Exp(-2))
	if got := e.Prob(2000); math.Abs(got-want) > 1e-12 {
		t.Errorf("exponential Prob = %g, want %g", got, want)
	}
	// Saturating curves clamp at 1.
	s := RateCurve{Base: 0.9, Amp: 0.1, Scale: 1, Shape: 1}
	if s.Prob(1<<20) > 1 {
		t.Error("Prob exceeded 1")
	}
}

func TestRateCurveValidate(t *testing.T) {
	bad := []RateCurve{
		{Base: -0.1},
		{Base: 1.5},
		{Base: 0.6, Amp: 0.6, Scale: 1},
		{Amp: 0.1}, // missing scale
		{Base: 0.1, Shape: -1},
		// NaN fails every range comparison, so it must be refused
		// explicitly rather than slip past them.
		{Base: math.NaN()},
		{Base: 0.1, Amp: math.NaN(), Scale: 1},
		{Amp: 0.1, Scale: math.NaN()},
		{Scale: math.NaN()},
		{Base: 0.1, Shape: math.NaN()},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: invalid curve accepted: %+v", i, c)
		}
	}
	if err := wornCurve().Validate(); err != nil {
		t.Errorf("valid curve rejected: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	bad := []Config{
		{Program: RateCurve{Base: 2}},
		{Erase: RateCurve{Base: -1}},
		{Grown: RateCurve{Amp: 0.1}},
		{Read: RateCurve{Base: 0.1, Shape: -2}},
		Config{Read: wornCurve()}.Scaled(math.NaN()),
		{Script: []ScriptEvent{{Op: NumOps, Index: 0}}},
		{Script: []ScriptEvent{{Op: Program, Index: -1}}},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		}
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config enabled")
	}
	if !(Config{Read: wornCurve()}).Enabled() {
		t.Error("rate config not enabled")
	}
	if !(Config{Script: []ScriptEvent{{Op: Erase, Index: 0}}}).Enabled() {
		t.Error("scripted config not enabled")
	}
	var nilInj *Injector
	if nilInj.Fails(Program, 0, 0) {
		t.Error("nil injector injected a fault")
	}
}

// sequence records the outcome of a fixed check pattern.
func sequence(t *testing.T, cfg Config, n int) []bool {
	t.Helper()
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []bool
	for k := 0; k < n; k++ {
		op := Op(k % int(NumOps))
		out = append(out, inj.Fails(op, k%32, 4000+k))
	}
	return out
}

func TestDeterminism(t *testing.T) {
	cfg := Config{
		Seed:    7,
		Program: RateCurve{Base: 0.05},
		Erase:   wornCurve(),
		Read:    RateCurve{Base: 0.2},
	}
	a := sequence(t, cfg, 4000)
	b := sequence(t, cfg, 4000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at check %d", i)
		}
	}
	cfg2 := cfg
	cfg2.Seed = 8
	c := sequence(t, cfg2, 4000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical 4000-check sequences")
	}
}

// TestZeroRateClassSkipsRNG: adding checks against a zero-rate class must
// not perturb the draws of the active classes.
func TestZeroRateClassSkipsRNG(t *testing.T) {
	cfg := Config{Seed: 3, Read: RateCurve{Base: 0.3}}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 1000; k++ {
		// a interleaves zero-rate program checks; b does not.
		a.Fails(Program, 0, 5000)
		ra := a.Fails(Read, 0, 5000)
		rb := b.Fails(Read, 0, 5000)
		if ra != rb {
			t.Fatalf("zero-rate class perturbed RNG at check %d", k)
		}
	}
}

func TestScriptMode(t *testing.T) {
	cfg := Config{
		// Curves are ignored in script mode.
		Program: RateCurve{Base: 1},
		Script: []ScriptEvent{
			{Op: Program, Index: 2},
			{Op: Erase, Index: 0},
			{Op: Read, Index: 1},
		},
	}
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var progs, erases, reads []bool
	for k := 0; k < 4; k++ {
		progs = append(progs, inj.Fails(Program, 0, 0))
		erases = append(erases, inj.Fails(Erase, 0, 0))
		reads = append(reads, inj.Fails(Read, 0, 0))
	}
	wantProgs := []bool{false, false, true, false}
	wantErases := []bool{true, false, false, false}
	wantReads := []bool{false, true, false, false}
	for k := 0; k < 4; k++ {
		if progs[k] != wantProgs[k] || erases[k] != wantErases[k] || reads[k] != wantReads[k] {
			t.Fatalf("script mismatch at round %d: progs=%v erases=%v reads=%v",
				k, progs, erases, reads)
		}
	}
	if want := [NumOps]int64{Program: 4, Erase: 4, Read: 4}; inj.checked != want {
		t.Errorf("checked counts %v, want %v", inj.checked, want)
	}
}

func TestScaled(t *testing.T) {
	cfg := Config{Program: RateCurve{Base: 0.1, Amp: 0.2, Scale: 1000, Shape: 2}}
	half := cfg.Scaled(0.5)
	if half.Program.Base != 0.05 || half.Program.Amp != 0.1 {
		t.Errorf("Scaled(0.5) = %+v", half.Program)
	}
	off := cfg.Scaled(0)
	if off.Enabled() {
		t.Error("Scaled(0) still enabled")
	}
	// Clamping keeps the curve a valid probability.
	big := cfg.Scaled(100)
	if err := big.Validate(); err != nil {
		t.Errorf("Scaled(100) invalid: %v", err)
	}
	if p := big.Program.Prob(1 << 20); p > 1 {
		t.Errorf("scaled curve exceeds probability 1: %g", p)
	}
	if neg := cfg.Scaled(-3); neg.Enabled() {
		t.Error("negative scale did not disable")
	}
}

func TestRateInjectionFrequency(t *testing.T) {
	inj, err := New(Config{Seed: 11, Program: RateCurve{Base: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	hits := 0
	for k := 0; k < n; k++ {
		if inj.Fails(Program, 0, 0) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.08 || got > 0.12 {
		t.Errorf("injection frequency %.3f, want ~0.10", got)
	}
	if inj.checked[Program] != n {
		t.Errorf("checked %d programs, want %d", inj.checked[Program], n)
	}
}

// TestFailsMemoMatchesProb: the memoized probabilities decide every
// check as evaluating each curve afresh does, over wear values that
// arrive out of order and grow the memo several times.
func TestFailsMemoMatchesProb(t *testing.T) {
	cfg := Config{
		Seed:    3,
		Program: RateCurve{Base: 0.01, Amp: 0.3, Scale: 3000, Shape: 2},
		Erase:   RateCurve{Base: 0.02, Amp: 0.2, Scale: 5000},
		Read:    RateCurve{Base: 0.05},
	}
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := rand.New(rand.NewSource(cfg.Seed))
	curves := [NumOps]RateCurve{Program: cfg.Program, Erase: cfg.Erase, Read: cfg.Read}
	pick := rand.New(rand.NewSource(9))
	for k := 0; k < 50000; k++ {
		op := Op(pick.Intn(int(NumOps)))
		pe := pick.Intn(1 << uint(pick.Intn(15)))
		p := curves[op].Prob(pe)
		want := p > 0 && (p >= 1 || ref.Float64() < p)
		if got := inj.Fails(op, 0, pe); got != want {
			t.Fatalf("check %d (%v, pe %d): Fails = %v, fresh curve gives %v", k, op, pe, got, want)
		}
	}
}
