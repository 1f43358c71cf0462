package uber

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCodeBasics(t *testing.T) {
	c := PaperCode()
	if c.InfoBits != 32768 {
		t.Errorf("InfoBits = %d, want 32768", c.InfoBits)
	}
	if c.TotalBits != 36864 {
		t.Errorf("TotalBits = %d, want 36864", c.TotalBits)
	}
	if r := float64(c.InfoBits) / float64(c.TotalBits); math.Abs(r-8.0/9.0) > 1e-12 {
		t.Errorf("Rate = %g, want 8/9", r)
	}
	if c.ParityBits() != 4096 {
		t.Errorf("ParityBits = %d, want 4096", c.ParityBits())
	}
	if err := c.Validate(); err != nil {
		t.Errorf("paper code invalid: %v", err)
	}
	if (Code{InfoBits: 0, TotalBits: 8}).Validate() == nil {
		t.Error("zero info accepted")
	}
	if (Code{InfoBits: 8, TotalBits: 8}).Validate() == nil {
		t.Error("rate-1 code accepted")
	}
}

func TestUBERSmallCodeExact(t *testing.T) {
	// Tiny code where the binomial is computable by hand:
	// m=4, n=2, p=0.5: P(X > 1) = 1 - C(4,0)/16 - C(4,1)/16 = 11/16.
	c := Code{InfoBits: 2, TotalBits: 4}
	got := UBER(c, 1, 0.5)
	want := (11.0 / 16.0) / 2.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("UBER = %g, want %g", got, want)
	}
}

func TestUBEREdgeCases(t *testing.T) {
	c := Code{InfoBits: 8, TotalBits: 16}
	if got := UBER(c, 4, 0); got != 0 {
		t.Errorf("UBER at p=0 should be 0, got %g", got)
	}
	if got := UBER(c, 16, 0.3); got != 0 {
		t.Errorf("UBER with k=m should be 0, got %g", got)
	}
	if got := UBER(c, 15, 1); math.Abs(got-1.0/8) > 1e-12 {
		t.Errorf("UBER at p=1, k=m-1 should be 1/n, got %g", got)
	}
	// k < 0 means no correction at all: tail = P(X > -1) = 1.
	if got := UBER(c, -1, 0.5); math.Abs(got-1.0/8) > 1e-12 {
		t.Errorf("UBER with k=-1 = %g, want 1/n", got)
	}
}

func TestUBERMonotonicity(t *testing.T) {
	c := PaperCode()
	// More correctable bits -> lower UBER.
	prev := math.Inf(1)
	for _, k := range []int{100, 200, 300, 500, 800} {
		u := UBER(c, k, 0.005)
		if u > prev {
			t.Errorf("UBER(k=%d) = %g rose above %g", k, u, prev)
		}
		prev = u
	}
	// Higher BER -> higher UBER.
	prev = 0
	for _, p := range []float64{0.001, 0.003, 0.005, 0.01, 0.02} {
		u := UBER(c, 300, p)
		if u < prev {
			t.Errorf("UBER(p=%g) = %g fell below %g", p, u, prev)
		}
		prev = u
	}
}

func TestLogUBERAgreesWithUBER(t *testing.T) {
	c := PaperCode()
	for _, k := range []int{200, 300, 400} {
		u := UBER(c, k, 0.004)
		if u == 0 {
			continue
		}
		lu := LogUBER(c, k, 0.004)
		if math.Abs(lu-math.Log10(u)) > 1e-6 {
			t.Errorf("LogUBER(k=%d) = %g, want %g", k, lu, math.Log10(u))
		}
	}
}

func TestLogUBERDeepTail(t *testing.T) {
	// At very large k, UBER underflows float64 but LogUBER must still be
	// finite and strongly negative.
	c := PaperCode()
	lu := LogUBER(c, 2000, 0.004)
	if !(lu < -100) {
		t.Errorf("LogUBER deep in the tail = %g, want << -100", lu)
	}
	if math.IsNaN(lu) || math.IsInf(lu, 1) {
		t.Errorf("LogUBER = %g, want finite", lu)
	}
}

func TestRequiredK(t *testing.T) {
	c := PaperCode()
	k, ok := RequiredK(c, 0.004, TargetUBER)
	if !ok {
		t.Fatal("RequiredK failed")
	}
	// Mean errors = 36864*0.004 ~ 147, sd ~ 12. The 1e-15 point sits
	// roughly 8 sigma out.
	if k < 180 || k > 320 {
		t.Errorf("RequiredK(0.004) = %d, want within [180, 320]", k)
	}
	// Verify minimality: k works, k-1 does not.
	if UBER(c, k, 0.004) > TargetUBER {
		t.Errorf("returned k=%d does not meet target", k)
	}
	if UBER(c, k-1, 0.004) <= TargetUBER {
		t.Errorf("k-1=%d already meets target; k not minimal", k-1)
	}
}

func TestRequiredKEdges(t *testing.T) {
	c := Code{InfoBits: 8, TotalBits: 16}
	if k, ok := RequiredK(c, 0, TargetUBER); !ok || k != 0 {
		t.Errorf("RequiredK(p=0) = %d,%v, want 0,true", k, ok)
	}
	if _, ok := RequiredK(c, 0.1, 0); ok {
		t.Error("zero target accepted")
	}
	if k, ok := RequiredK(c, 1, 1e-15); !ok || k != 16 {
		t.Errorf("RequiredK(p=1) = %d,%v, want m,true", k, ok)
	}
}

func TestRequiredKMonotoneInBER(t *testing.T) {
	c := PaperCode()
	prev := 0
	for _, p := range []float64{0.001, 0.002, 0.004, 0.006, 0.008, 0.012, 0.017} {
		k, ok := RequiredK(c, p, TargetUBER)
		if !ok {
			t.Fatalf("RequiredK(%g) failed", p)
		}
		if k < prev {
			t.Errorf("RequiredK(%g) = %d decreased from %d", p, k, prev)
		}
		prev = k
	}
}

func TestUBERPropertyBounds(t *testing.T) {
	c := Code{InfoBits: 64, TotalBits: 128}
	f := func(kRaw uint8, pRaw uint16) bool {
		k := int(kRaw) % 140
		p := float64(pRaw) / 65536.0 // [0,1)
		u := UBER(c, k, p)
		return u >= 0 && u <= 1.0/float64(c.InfoBits)+1e-12 && !math.IsNaN(u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialTailAgainstDirectSum(t *testing.T) {
	// Cross-check the log-domain tail against a direct float sum on a
	// small code where it's exact.
	m, p := 64, 0.05
	c := Code{InfoBits: 32, TotalBits: m}
	for _, k := range []int{0, 2, 5, 10} {
		// Direct: P(X > k).
		direct := 0.0
		for i := k + 1; i <= m; i++ {
			direct += math.Exp(logChoose(m, i)) * math.Pow(p, float64(i)) * math.Pow(1-p, float64(m-i))
		}
		got := UBER(c, k, p) * float64(c.InfoBits)
		if math.Abs(got-direct) > 1e-9*math.Max(direct, 1e-30) && math.Abs(got-direct) > 1e-12 {
			t.Errorf("tail(k=%d) = %g, direct %g", k, got, direct)
		}
	}
}

func TestMeetsTargetMatchesRequiredK(t *testing.T) {
	c := PaperCode()
	for _, pc := range []float64{1e-5, 1e-4, 1e-3, 4e-3, 7e-3, 1e-2, 2e-2, 5e-2, 0.2} {
		k, ok := RequiredK(c, pc, TargetUBER)
		if !ok {
			t.Fatalf("RequiredK(%g) not ok", pc)
		}
		if !MeetsTarget(c, k, pc, TargetUBER) {
			t.Errorf("pc=%g: RequiredK=%d but MeetsTarget(k) false", pc, k)
		}
		if k > 0 && MeetsTarget(c, k-1, pc, TargetUBER) {
			t.Errorf("pc=%g: MeetsTarget(k-1=%d) true, so RequiredK=%d not minimal", pc, k-1, k)
		}
	}
}

func TestMeetsTargetEdges(t *testing.T) {
	c := PaperCode()
	if MeetsTarget(c, 100, 1e-3, 0) {
		t.Error("non-positive target should never be met")
	}
	if !MeetsTarget(c, 0, 0, TargetUBER) {
		t.Error("zero BER should meet any positive target with k=0")
	}
	if !MeetsTarget(c, c.TotalBits, 1, TargetUBER) {
		t.Error("correcting every bit should meet the target even at pc=1")
	}
	if MeetsTarget(c, c.TotalBits-1, 1, TargetUBER) {
		t.Error("pc=1 with k<m cannot meet the target")
	}
}
