package nunma

import (
	"math"
	"testing"

	"flexlevel/internal/noise"
)

// tuneMLC tunes the baseline MLC's references at a wear point and
// returns the tuned spec, the per-reference shifts (negative = down) and
// the BER before and after.
func tuneMLC(t *testing.T, pe int, hours float64) (tuned *noise.Spec, shifts []float64, before, after float64) {
	t.Helper()
	spec := BaselineMLC()
	tuned, err := TuneReadRefs(spec, noise.MLCGray(), pe, hours)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tuned.ReadRefs {
		shifts = append(shifts, r-spec.ReadRefs[i])
	}
	ber := func(s *noise.Spec) float64 {
		m, err := noise.NewBERModel(s, noise.MLCGray())
		if err != nil {
			t.Fatal(err)
		}
		return m.TotalBER(pe, hours)
	}
	return tuned, shifts, ber(spec), ber(tuned)
}

func TestTuneReadRefsImproves(t *testing.T) {
	tuned, shifts, before, after := tuneMLC(t, 6000, 720)
	if after >= before {
		t.Errorf("tuning did not improve: %.3e -> %.3e", before, after)
	}
	// At heavy retention the optimal shifts are downward (tracking
	// charge loss).
	down := 0
	for _, s := range shifts {
		if s < 0 {
			down++
		}
	}
	if down == 0 {
		t.Errorf("no downward shifts at heavy retention: %v", shifts)
	}
	// The tuned spec stays structurally valid and ordered.
	if err := tuned.Validate(); err != nil {
		t.Errorf("tuned spec invalid: %v", err)
	}
	// The original spec is untouched.
	if got := BaselineMLC().ReadRefs[2]; math.Abs(got-3.55) > 1e-12 {
		t.Error("original spec mutated")
	}
}

func TestTuneReadRefsFreshNearNoop(t *testing.T) {
	// With no retention stress the stock placement is already close to
	// optimal; tuning must not make things worse and shifts stay small.
	_, shifts, before, after := tuneMLC(t, 1000, 1)
	if after > before*1.0001 {
		t.Errorf("tuning worsened a fresh device: %.3e -> %.3e", before, after)
	}
	for i, s := range shifts {
		if math.Abs(s) > 0.1 {
			t.Errorf("fresh-device shift %d = %.3f suspiciously large", i, s)
		}
	}
}

func TestTuneReadRefsCannotMatchLevelAdjust(t *testing.T) {
	// The ablation's conclusion, pinned: tuned baseline BER stays an
	// order of magnitude above NUNMA 3 at the worst corner.
	_, _, _, tunedBER := tuneMLC(t, 6000, 720)
	cfg, err := ByName("NUNMA 3")
	if err != nil {
		t.Fatal(err)
	}
	red, err := noise.NewBERModel(cfg.Spec(), testReduceEncoding())
	if err != nil {
		t.Fatal(err)
	}
	if redBER := red.TotalBER(6000, 720); tunedBER < 5*redBER {
		t.Errorf("tuned baseline %.3e too close to NUNMA 3 %.3e", tunedBER, redBER)
	}
}

// testReduceEncoding avoids importing reducecode (import cycle safety
// is fine, but keep the package's test deps minimal): occupancy from
// Table 1, 1.5 bits/cell.
func testReduceEncoding() noise.Encoding {
	return noise.Encoding{
		Name:                   "reducecode-test",
		Occupancy:              []float64{6.0 / 16, 5.0 / 16, 5.0 / 16},
		BitsPerCell:            1.5,
		BitErrorsPerLevelError: 1,
	}
}

func TestTuneReadRefsRejectsInvalidSpec(t *testing.T) {
	bad := BaselineMLC()
	bad.ReadRefs = bad.ReadRefs[:1]
	if _, err := TuneReadRefs(bad, noise.MLCGray(), 1000, 1); err == nil {
		t.Error("invalid spec accepted")
	}
}
