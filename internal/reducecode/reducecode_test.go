package reducecode

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEncodeTable1(t *testing.T) {
	// Exact Table 1 mapping from the paper.
	want := map[uint8]LevelPair{
		0b000: {0, 0}, 0b001: {0, 1}, 0b010: {1, 0}, 0b011: {1, 1},
		0b100: {2, 2}, 0b101: {0, 2}, 0b110: {2, 0}, 0b111: {2, 1},
	}
	for v, p := range want {
		if got := Encode(v); got != p {
			t.Errorf("Encode(%03b) = %v, want %v", v, got, p)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for v := uint8(0); v < 8; v++ {
		got, ok := Decode(Encode(v))
		if !ok || got != v {
			t.Errorf("Decode(Encode(%03b)) = %03b,%v", v, got, ok)
		}
	}
}

func TestDecodeInvalid(t *testing.T) {
	if _, ok := Decode(LevelPair{1, 2}); ok {
		t.Error("unused combination (1,2) decoded as valid")
	}
	if _, ok := Decode(LevelPair{3, 0}); ok {
		t.Error("out-of-range level decoded as valid")
	}
	if got := DecodeClosest(LevelPair{1, 2}); got != 0b100 {
		t.Errorf("DecodeClosest(1,2) = %03b, want 100", got)
	}
}

func TestEncodePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Encode(8) should panic")
		}
	}()
	Encode(8)
}

func TestDecodeClosestPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DecodeClosest out of range should panic")
		}
	}()
	DecodeClosest(LevelPair{0, 3})
}

func popcount3(x uint8) int {
	n := 0
	for i := 0; i < 3; i++ {
		if x>>(uint(i))&1 == 1 {
			n++
		}
	}
	return n
}

// TestSingleLevelDistortionOneBitError verifies the paper's central
// ReduceCode claim: one level of distortion in either cell of a pair
// causes only one bit error. Exhaustive enumeration of the published
// Table 1 shows the claim holds for every valid-to-valid transition
// EXCEPT the (2,2)<->(2,1) pair (codewords 100<->111), which costs two
// bits — an inherent property of the published mapping that this test
// pins down (see EXPERIMENTS.md).
func TestSingleLevelDistortionOneBitError(t *testing.T) {
	twoBit := 0
	for v := uint8(0); v < 8; v++ {
		p := Encode(v)
		for _, d := range []struct{ dI, dII int }{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			ni, nii := int(p.I)+d.dI, int(p.II)+d.dII
			if ni < 0 || ni >= NumLevels || nii < 0 || nii >= NumLevels {
				continue
			}
			q := LevelPair{uint8(ni), uint8(nii)}
			got, ok := Decode(q)
			if !ok {
				continue // the single unused combination; policy tested separately
			}
			errs := popcount3(got ^ v)
			if errs == 2 && ((v == 0b100 && got == 0b111) || (v == 0b111 && got == 0b100)) {
				twoBit++ // the documented exception in the published table
				continue
			}
			if errs != 1 {
				t.Errorf("value %03b distorted (%v -> %v) decodes to %03b: %d bit errors, want 1",
					v, p, q, got, errs)
			}
		}
	}
	if twoBit != 2 {
		t.Errorf("expected exactly the two documented 2-bit transitions, found %d", twoBit)
	}
}

// TestInvalidLandingPolicy pins the bit-error cost of single-level
// distortions that land on the unused (1,2) combination under the
// DecodeClosest policy: retention drops from (2,2) cost 0, C2C lifts
// from (0,2) cost 1. Only the C2C lift from (1,1) pays 3.
func TestInvalidLandingPolicy(t *testing.T) {
	cases := []struct {
		from uint8
		want int
	}{
		{0b100, 0}, // (2,2) cell I drops: decodes back to 100
		{0b101, 1}, // (0,2) cell I lifts
		{0b011, 3}, // (1,1) cell II lifts — the pathological case
	}
	for _, c := range cases {
		got := DecodeClosest(LevelPair{1, 2})
		if errs := popcount3(got ^ c.from); errs != c.want {
			t.Errorf("distortion from %03b onto (1,2): %d bit errors, want %d", c.from, errs, c.want)
		}
	}
}

func TestMSBAndLSBs(t *testing.T) {
	if MSB(0b101) != 1 || MSB(0b011) != 0 {
		t.Error("MSB extraction wrong")
	}
	if LSBs(0b101) != 0b01 || LSBs(0b110) != 0b10 {
		t.Error("LSBs extraction wrong")
	}
}

// TestPlanProgramTable2 verifies the two-step plan against paper Table 2.
func TestPlanProgramTable2(t *testing.T) {
	cases := []struct {
		v      uint8
		after1 LevelPair
		after2 LevelPair
	}{
		{0b000, LevelPair{0, 0}, LevelPair{0, 0}},
		{0b001, LevelPair{0, 1}, LevelPair{0, 1}},
		{0b010, LevelPair{1, 0}, LevelPair{1, 0}},
		{0b011, LevelPair{1, 1}, LevelPair{1, 1}},
		{0b100, LevelPair{0, 0}, LevelPair{2, 2}},
		{0b101, LevelPair{0, 1}, LevelPair{0, 2}},
		{0b110, LevelPair{1, 0}, LevelPair{2, 0}},
		{0b111, LevelPair{1, 1}, LevelPair{2, 1}},
	}
	for _, c := range cases {
		got := PlanProgram(c.v)
		if got.AfterStep1 != c.after1 || got.AfterStep2 != c.after2 {
			t.Errorf("PlanProgram(%03b) = %+v, want step1=%v step2=%v",
				c.v, got, c.after1, c.after2)
		}
	}
}

// TestPlanProgramMonotonic verifies the ISPP constraint: programming can
// only raise Vth levels, never lower them.
func TestPlanProgramMonotonic(t *testing.T) {
	for v := uint8(0); v < 8; v++ {
		p := PlanProgram(v)
		if p.AfterStep2.I < p.AfterStep1.I || p.AfterStep2.II < p.AfterStep1.II {
			t.Errorf("PlanProgram(%03b) lowers a level: %+v", v, p)
		}
		if p.AfterStep1.I > 1 || p.AfterStep1.II > 1 {
			t.Errorf("PlanProgram(%03b) step 1 exceeds level 1: %+v", v, p)
		}
	}
}

// TestPlanProgramReachesEncoding verifies the plan's final state equals
// the Table 1 codeword.
func TestPlanProgramReachesEncoding(t *testing.T) {
	for v := uint8(0); v < 8; v++ {
		if got := PlanProgram(v).AfterStep2; got != Encode(v) {
			t.Errorf("PlanProgram(%03b) final %v != Encode %v", v, got, Encode(v))
		}
	}
}

func TestPlanProgramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PlanProgram(9) should panic")
		}
	}()
	PlanProgram(9)
}

func TestEncodingProperties(t *testing.T) {
	e := Encoding()
	if err := e.Validate(); err != nil {
		t.Fatalf("encoding invalid: %v", err)
	}
	if e.BitsPerCell != 1.5 {
		t.Errorf("BitsPerCell = %g, want 1.5", e.BitsPerCell)
	}
	// Occupancy from Table 1: levels 0/1/2 appear 6/5/5 times over the
	// 16 cell positions of the 8 codewords.
	want := []float64{6.0 / 16, 5.0 / 16, 5.0 / 16}
	for i, w := range want {
		if math.Abs(e.Occupancy[i]-w) > 1e-12 {
			t.Errorf("Occupancy[%d] = %g, want %g", i, e.Occupancy[i], w)
		}
	}
	if CapacityFactor != 0.75 {
		t.Errorf("CapacityFactor = %g, want 0.75 (25%% loss)", CapacityFactor)
	}
}

func TestGrayOn3Levels(t *testing.T) {
	e := GrayOn3Levels()
	if err := e.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if e.BitsPerCell != 1 {
		t.Errorf("naive Gray on 3 levels stores %g bits/cell, want 1", e.BitsPerCell)
	}
}

// Property: every valid pair decodes, and re-encoding gives it back.
func TestDecodeEncodeProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		p := LevelPair{a % NumLevels, b % NumLevels}
		v, ok := Decode(p)
		if !ok {
			return p.I == 1 && p.II == 2 // the only invalid in-range pair
		}
		return Encode(v) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
