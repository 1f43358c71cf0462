package nunma

import (
	"math"
	"testing"

	"flexlevel/internal/noise"
	"flexlevel/internal/reducecode"
)

func TestTable3Values(t *testing.T) {
	cfgs := Table3()
	if len(cfgs) != 3 {
		t.Fatalf("Table3 has %d configs, want 3", len(cfgs))
	}
	// Exact values from the paper.
	want := []Config{
		{Name: "NUNMA 1", Vpp: 0.15, Vverify1: 2.71, Vverify2: 3.61, VreadRef1: 2.65, VreadRef2: 3.55},
		{Name: "NUNMA 2", Vpp: 0.15, Vverify1: 2.70, Vverify2: 3.65, VreadRef1: 2.65, VreadRef2: 3.55},
		{Name: "NUNMA 3", Vpp: 0.15, Vverify1: 2.75, Vverify2: 3.70, VreadRef1: 2.65, VreadRef2: 3.55},
	}
	for i, c := range cfgs {
		if c != want[i] {
			t.Errorf("Table3[%d] = %+v, want %+v", i, c, want[i])
		}
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("NUNMA 2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Vverify2 != 3.65 {
		t.Errorf("NUNMA 2 Vverify2 = %g, want 3.65", c.Vverify2)
	}
	if _, err := ByName("NUNMA 9"); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestModel pins the scheme → spec/encoding choice of Model: the
// baseline is the Gray-coded MLC cell, every reduced cell uses
// ReduceCode, and names outside the scheme set are rejected.
func TestModel(t *testing.T) {
	want := map[string]struct{ spec, enc string }{
		"baseline": {BaselineMLC().Name, noise.MLCGray().Name},
		"basic":    {BasicLevelAdjust().Name, reducecode.Encoding().Name},
	}
	for _, c := range Table3() {
		want[c.Name] = struct{ spec, enc string }{c.Name, reducecode.Encoding().Name}
	}
	for scheme, w := range want {
		m, err := Model(scheme)
		if err != nil {
			t.Fatalf("Model(%q): %v", scheme, err)
		}
		if m.Spec.Name != w.spec || m.Enc.Name != w.enc {
			t.Errorf("Model(%q) = %s/%s, want %s/%s", scheme, m.Spec.Name, m.Enc.Name, w.spec, w.enc)
		}
	}
	for _, bad := range []string{"", "Baseline", "NUNMA 9"} {
		if _, err := Model(bad); err == nil {
			t.Errorf("Model(%q) accepted", bad)
		}
	}
}

func TestSpecsValidate(t *testing.T) {
	for _, c := range Table3() {
		if err := c.Spec().Validate(); err != nil {
			t.Errorf("%s spec invalid: %v", c.Name, err)
		}
	}
	if err := BaselineMLC().Validate(); err != nil {
		t.Errorf("baseline spec invalid: %v", err)
	}
	if err := BasicLevelAdjust().Validate(); err != nil {
		t.Errorf("basic LevelAdjust spec invalid: %v", err)
	}
}

func TestNonUniformMargins(t *testing.T) {
	// NUNMA's defining property: NUNMA 2 and 3 give the high level a
	// larger retention margin than the low level; NUNMA 1 is uniform.
	for _, c := range Table3() {
		m1, m2 := c.RetentionMargins()
		switch c.Name {
		case "NUNMA 1":
			if math.Abs(m1-m2) > 1e-9 {
				t.Errorf("NUNMA 1 margins %g/%g should be uniform", m1, m2)
			}
		default:
			if m2 <= m1 {
				t.Errorf("%s margins %g/%g: high level should get more", c.Name, m1, m2)
			}
		}
	}
}

func TestReducedStateHasLargerMarginsThanBaseline(t *testing.T) {
	base := BaselineMLC()
	// Baseline level spacing vs reduced level spacing: reduced state
	// spreads 3 levels over the window the baseline packs 4 into.
	for _, c := range Table3() {
		spec := c.Spec()
		if spec.NumLevels() != 3 {
			t.Fatalf("%s has %d levels, want 3", c.Name, spec.NumLevels())
		}
		// Interference margin of the first programmed level: its upper
		// read reference less its post-program Vth mean.
		rm := spec.UpperRef(1, 0) - spec.Programmed(1).Mu
		bm := base.UpperRef(1, 0) - base.Programmed(1).Mu
		if rm <= bm {
			t.Errorf("%s interference margin %g not larger than baseline %g", c.Name, rm, bm)
		}
	}
}

func TestFig5C2CBEROrdering(t *testing.T) {
	// Paper Fig. 5: reduced-state C2C BER far below baseline, and
	// NUNMA 1 < NUNMA 2 < NUNMA 3 (NUNMA 3 is 50%/20% above 1/2).
	enc := reducecode.Encoding()
	bers := map[string]float64{}
	for _, c := range Table3() {
		m, err := noise.NewBERModel(c.Spec(), enc)
		if err != nil {
			t.Fatal(err)
		}
		bers[c.Name] = m.C2CBER()
	}
	bm, err := noise.NewBERModel(BaselineMLC(), noise.MLCGray())
	if err != nil {
		t.Fatal(err)
	}
	baseline := bm.C2CBER()
	for name, b := range bers {
		if b >= baseline {
			t.Errorf("%s C2C BER %g not below baseline %g", name, b, baseline)
		}
	}
	if !(bers["NUNMA 1"] < bers["NUNMA 2"] && bers["NUNMA 2"] < bers["NUNMA 3"]) {
		t.Errorf("C2C ordering violated: N1=%g N2=%g N3=%g",
			bers["NUNMA 1"], bers["NUNMA 2"], bers["NUNMA 3"])
	}
}

func TestTable4RetentionOrdering(t *testing.T) {
	// Paper Table 4: retention BER baseline > NUNMA 1 > NUNMA 2 > NUNMA 3
	// at every (P/E, time) point.
	enc := reducecode.Encoding()
	base, err := noise.NewBERModel(BaselineMLC(), noise.MLCGray())
	if err != nil {
		t.Fatal(err)
	}
	var models []*noise.BERModel
	for _, c := range Table3() {
		m, err := noise.NewBERModel(c.Spec(), enc)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	for _, pe := range []int{2000, 3000, 4000, 5000, 6000} {
		for _, hours := range []float64{24, 48, 168, 720} {
			prev := base.RetentionBER(pe, hours)
			for i, m := range models {
				got := m.RetentionBER(pe, hours)
				if got >= prev {
					t.Errorf("P/E %d, %gh: NUNMA %d BER %g not below previous %g",
						pe, hours, i+1, got, prev)
				}
				prev = got
			}
		}
	}
}

func TestNUNMA3StaysBelowSoftSensingTrigger(t *testing.T) {
	// The paper's key device-level result: NUNMA 3 keeps both C2C and
	// retention BER below the 4e-3 limit that triggers extra sensing
	// levels, across the whole evaluation grid up to P/E 6000, 1 month.
	const trigger = 4e-3
	c, err := ByName("NUNMA 3")
	if err != nil {
		t.Fatal(err)
	}
	m, err := noise.NewBERModel(c.Spec(), reducecode.Encoding())
	if err != nil {
		t.Fatal(err)
	}
	if b := m.C2CBER(); b >= trigger {
		t.Errorf("NUNMA 3 C2C BER %g exceeds trigger %g", b, trigger)
	}
	for _, pe := range []int{2000, 3000, 4000, 5000, 6000} {
		for _, hours := range []float64{24, 48, 168, 720} {
			if b := m.RetentionBER(pe, hours); b >= trigger {
				t.Errorf("NUNMA 3 retention BER %g at P/E %d, %gh exceeds trigger", b, pe, hours)
			}
		}
	}
}

func TestBaselineExceedsTriggerAtHighWear(t *testing.T) {
	// Conversely the baseline must exceed the trigger at high P/E and
	// long retention — otherwise Table 5 would be all zeros and the
	// whole technique pointless.
	m, err := noise.NewBERModel(BaselineMLC(), noise.MLCGray())
	if err != nil {
		t.Fatal(err)
	}
	if b := m.TotalBER(6000, 720); b <= 4e-3 {
		t.Errorf("baseline total BER %g at P/E 6000, 1 month should exceed 4e-3", b)
	}
}
