package nunma

import (
	"math"
	"testing"
	"testing/quick"

	"flexlevel/internal/noise"
	"flexlevel/internal/reducecode"
)

// shiftModels returns every spec/encoding pair the adaptive ladder runs
// against.
func shiftModels(t *testing.T) []*noise.BERModel {
	t.Helper()
	var models []*noise.BERModel
	bm, err := noise.NewBERModel(BaselineMLC(), noise.MLCGray())
	if err != nil {
		t.Fatal(err)
	}
	models = append(models, bm)
	for _, c := range Table3() {
		m, err := noise.NewBERModel(c.Spec(), reducecode.Encoding())
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	return models
}

// The nominal BERs are one-line zero-shift calls into the drift-aware
// evaluation; their exact bits are pinned for every scheme so the read
// reference shift can never perturb a golden-pinned number.
func TestNominalBERBitsPinned(t *testing.T) {
	pts := []struct {
		pe    int
		hours float64
	}{{0, 0}, {1000, 24}, {6000, 720}, {10000, 2160}}
	want := []struct {
		name  string
		c2c   uint64
		total [4]uint64 // TotalBER at each of pts
	}{
		{"baseline-mlc", 0x3f5f6afd8c1d22c1, [4]uint64{0x3f5f834c44e80b52, 0x3f60a192a995454c, 0x3f9768aef3dc0eb6, 0x3fb1a088d2e30dfb}},
		{"NUNMA 1", 0x3f095e1c753fcdb9, [4]uint64{0x3f0a1c1f70f150f3, 0x3f195a06f77b1494, 0x3f93b03eba2b18eb, 0x3fb226e350658508}},
		{"NUNMA 2", 0x3f151afd62945fa9, [4]uint64{0x3f15f31830e82183, 0x3f1f53b56618c86c, 0x3f7efca9065e9464, 0x3fa3ac9c4fa60e60}},
		{"NUNMA 3", 0x3f2e0a10ffee9a69, [4]uint64{0x3f2e0a15dc79f6db, 0x3f2e0b3800d78e01, 0x3f3e251231613025, 0x3f7149dc706a0f62}},
	}
	models := shiftModels(t)
	if len(models) != len(want) {
		t.Fatalf("%d models, want %d", len(models), len(want))
	}
	for k, m := range models {
		w := want[k]
		if m.Spec.Name != w.name {
			t.Fatalf("model %d is %q, want %q", k, m.Spec.Name, w.name)
		}
		if got := math.Float64bits(m.C2CBER()); got != w.c2c {
			t.Errorf("%s: C2CBER bits %#x, want %#x", w.name, got, w.c2c)
		}
		for i, pt := range pts {
			if got := math.Float64bits(m.TotalBER(pt.pe, pt.hours)); got != w.total[i] {
				t.Errorf("%s pe=%d h=%g: TotalBER bits %#x, want %#x", w.name, pt.pe, pt.hours, got, w.total[i])
			}
		}
	}
}

// Under heavy retention drift the optimal shift is negative (references
// follow the charge loss down) and strictly beats the static placement.
func TestOptimalShiftTracksDrift(t *testing.T) {
	for _, m := range shiftModels(t) {
		shiftMv, ber := OptimalShift(m, 10000, 2160, -400, 100, 5)
		static := m.TotalBER(10000, 2160)
		if shiftMv >= 0 {
			t.Errorf("%s: optimal shift %dmV under heavy drift, want negative", m.Spec.Name, shiftMv)
		}
		if ber >= static {
			t.Errorf("%s: shifted BER %g does not beat static %g", m.Spec.Name, ber, static)
		}
	}
}

// Fresh cells have no downward drift to chase: the optimum never goes
// negative (it may go slightly positive, trading unused retention
// margin for interference margin) and never loses to the static BER.
func TestOptimalShiftFreshNonNegative(t *testing.T) {
	for _, m := range shiftModels(t) {
		shiftMv, ber := OptimalShift(m, 100, 0.01, -400, 100, 5)
		if shiftMv < 0 {
			t.Errorf("%s: fresh-cell optimal shift %dmV, want >= 0", m.Spec.Name, shiftMv)
		}
		static := m.TotalBER(100, 0.01)
		if ber > static {
			t.Errorf("%s: optimum %g above static %g", m.Spec.Name, ber, static)
		}
	}
}

// Property: the grid optimum is never worse than the zero shift (zero
// is always inside the grid), and shifted BERs stay valid probabilities.
func TestPropertyOptimalShift(t *testing.T) {
	m, err := noise.NewBERModel(BaselineMLC(), noise.MLCGray())
	if err != nil {
		t.Fatal(err)
	}
	f := func(peRaw uint16, hoursRaw uint16, shiftRaw int16) bool {
		pe := int(peRaw) % 12000
		hours := float64(int(hoursRaw) % 4400)
		shiftMv, ber := OptimalShift(m, pe, hours, -400, 100, 10)
		if shiftMv < -400 || shiftMv > 100 {
			return false
		}
		if ber > m.TotalBER(pe, hours) {
			return false
		}
		s := float64(int(shiftRaw)%400) / 1000
		b := m.TotalBERShifted(pe, hours, s)
		return b >= 0 && b <= 1 && !math.IsNaN(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
