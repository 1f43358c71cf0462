// Package nunma holds the threshold-voltage configurations of FlexLevel's
// LevelAdjust technique: the regular 4-level MLC baseline, the basic
// (uniform-margin) 3-level reduced state, and the three non-uniform
// noise-margin-adjustment configurations of paper Table 3. It also
// provides a small verify-voltage optimizer used for the ablation study.
package nunma

import (
	"fmt"
	"math"

	"flexlevel/internal/noise"
	"flexlevel/internal/reducecode"
)

// Config is one row of paper Table 3: the program step and the verify /
// read-reference voltages of the two programmed levels of a reduced-state
// cell (level 0 is the erased state).
type Config struct {
	Name      string
	Vpp       float64
	Vverify1  float64
	Vverify2  float64
	VreadRef1 float64
	VreadRef2 float64
}

// Table3 returns the three NUNMA configurations exactly as published.
func Table3() []Config {
	return []Config{
		{Name: "NUNMA 1", Vpp: 0.15, Vverify1: 2.71, Vverify2: 3.61, VreadRef1: 2.65, VreadRef2: 3.55},
		{Name: "NUNMA 2", Vpp: 0.15, Vverify1: 2.70, Vverify2: 3.65, VreadRef1: 2.65, VreadRef2: 3.55},
		{Name: "NUNMA 3", Vpp: 0.15, Vverify1: 2.75, Vverify2: 3.70, VreadRef1: 2.65, VreadRef2: 3.55},
	}
}

// ByName returns the Table 3 configuration with the given name.
func ByName(name string) (Config, error) {
	for _, c := range Table3() {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("nunma: unknown configuration %q", name)
}

// Model builds the BER model of a device scheme: "baseline" (the
// regular MLC cell, Gray-coded), "basic" (the uniform-margin reduced
// cell of §4.1) or a Table 3 configuration name; the reduced cells use
// ReduceCode. It is the one place a scheme name picks its spec and
// encoding.
func Model(scheme string) (*noise.BERModel, error) {
	switch scheme {
	case "baseline":
		return noise.NewBERModel(BaselineMLC(), noise.MLCGray())
	case "basic":
		return noise.NewBERModel(BasicLevelAdjust(), reducecode.Encoding())
	}
	cfg, err := ByName(scheme)
	if err != nil {
		return nil, err
	}
	return noise.NewBERModel(cfg.Spec(), reducecode.Encoding())
}

// Spec builds the 3-level reduced-state device spec for the config.
func (c Config) Spec() *noise.Spec {
	return &noise.Spec{
		Name: c.Name,
		Levels: []noise.Level{
			{Verify: noise.ErasedMu, Sigma: noise.ErasedSigma},
			{Verify: c.Vverify1, Sigma: noise.DefaultProgramSigma},
			{Verify: c.Vverify2, Sigma: noise.DefaultProgramSigma},
		},
		ReadRefs: []float64{c.VreadRef1, c.VreadRef2},
		Vpp:      c.Vpp,
		Vpass:    noise.DefaultVpass,
	}
}

// BaselineMLC returns the regular 4-level MLC normal-state spec used as
// the comparison baseline throughout the paper's evaluation. Verify
// voltages sit just above their read references (the paper's Fig. 4(a)
// starting point) with the same 0.15V program step as Table 3.
func BaselineMLC() *noise.Spec {
	return &noise.Spec{
		Name: "baseline-mlc",
		Levels: []noise.Level{
			{Verify: noise.ErasedMu, Sigma: noise.ErasedSigma},
			{Verify: 2.30, Sigma: noise.DefaultProgramSigma},
			{Verify: 2.95, Sigma: noise.DefaultProgramSigma},
			{Verify: 3.60, Sigma: noise.DefaultProgramSigma},
		},
		ReadRefs: []float64{2.25, 2.90, 3.55},
		Vpp:      0.15,
		Vpass:    noise.DefaultVpass,
	}
}

// SLCModeSpec returns the industry-standard fallback the encoding
// ablation compares against: the MLC cell driven with only its erased
// and top programmed levels and a single, centered read reference —
// one bit per cell at maximal noise margins.
func SLCModeSpec() *noise.Spec {
	return &noise.Spec{
		Name: "slc-mode",
		Levels: []noise.Level{
			{Verify: noise.ErasedMu, Sigma: noise.ErasedSigma},
			{Verify: 3.60, Sigma: noise.DefaultProgramSigma},
		},
		ReadRefs: []float64{2.35},
		Vpp:      0.15,
		Vpass:    noise.DefaultVpass,
	}
}

// BasicLevelAdjust returns the reduced-state spec of §4.1 before NUNMA is
// applied: three levels with uniform noise margins (verify voltages the
// same small distance above the read references as the baseline MLC
// uses).
func BasicLevelAdjust() *noise.Spec {
	return &noise.Spec{
		Name: "basic-leveladjust",
		Levels: []noise.Level{
			{Verify: noise.ErasedMu, Sigma: noise.ErasedSigma},
			{Verify: 2.70, Sigma: noise.DefaultProgramSigma},
			{Verify: 3.60, Sigma: noise.DefaultProgramSigma},
		},
		ReadRefs: []float64{2.65, 3.55},
		Vpp:      0.15,
		Vpass:    noise.DefaultVpass,
	}
}

// OptimalShift grid-searches the read-reference shift (in whole
// millivolts, the calib package's quantum) that minimizes the total
// drift-aware BER at the given wear and retention age. It is the
// oracle the adaptive-ladder tests compare the online tracker against:
// the tracker only sees decoder feedback, never this closed form.
func OptimalShift(m *noise.BERModel, pe int, hours float64, loMv, hiMv, stepMv int) (shiftMv int, ber float64) {
	if stepMv <= 0 {
		stepMv = 1
	}
	best, bestBER := loMv, math.Inf(1)
	for s := loMv; s <= hiMv; s += stepMv {
		b := m.TotalBERShifted(pe, hours, float64(s)/1000)
		if b < bestBER {
			best, bestBER = s, b
		}
	}
	return best, bestBER
}
