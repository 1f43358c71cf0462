package noise

import (
	"fmt"
	"math"
)

// Level describes one programmed Vth level of a cell.
//
// For programmed levels (index > 0) the post-ISPP Vth distribution is
// modeled as N(Verify + Vpp/2, Sigma²): ISPP overshoots the verify
// voltage by up to one program step Vpp, and Sigma captures program
// noise. For the erased level (index 0) Verify is the distribution mean
// directly (the paper models the erased state as N(1.1, 0.35)).
type Level struct {
	Verify float64 // program verify voltage (erased: distribution mean)
	Sigma  float64 // programmed Vth standard deviation
}

// Spec fully describes the Vth landscape of a cell state: the set of
// levels, the read reference voltages separating them, the ISPP step,
// and the top of the usable Vth window (the read pass voltage — a cell
// pushed above it by interference reads as a failure on every sense).
type Spec struct {
	Name     string
	Levels   []Level
	ReadRefs []float64 // len(Levels)-1 ascending boundaries
	Vpp      float64   // ISPP program step
	Vpass    float64   // top of the Vth window
}

// Validate reports structural problems in the spec.
func (s *Spec) Validate() error {
	if len(s.Levels) < 2 {
		return fmt.Errorf("noise: spec %q needs at least 2 levels, has %d", s.Name, len(s.Levels))
	}
	if len(s.ReadRefs) != len(s.Levels)-1 {
		return fmt.Errorf("noise: spec %q has %d read refs, want %d",
			s.Name, len(s.ReadRefs), len(s.Levels)-1)
	}
	for i := 1; i < len(s.ReadRefs); i++ {
		if s.ReadRefs[i] <= s.ReadRefs[i-1] {
			return fmt.Errorf("noise: spec %q read refs not ascending at %d", s.Name, i)
		}
	}
	for i := 1; i < len(s.Levels); i++ {
		if s.Levels[i].Verify <= s.Levels[i-1].Verify {
			return fmt.Errorf("noise: spec %q verify voltages not ascending at %d", s.Name, i)
		}
	}
	for i, l := range s.Levels {
		if l.Sigma <= 0 {
			return fmt.Errorf("noise: spec %q level %d has non-positive sigma", s.Name, i)
		}
	}
	if s.Vpp < 0 {
		return fmt.Errorf("noise: spec %q has negative Vpp", s.Name)
	}
	if s.Vpass <= s.Levels[len(s.Levels)-1].Verify {
		return fmt.Errorf("noise: spec %q Vpass below top verify voltage", s.Name)
	}
	return nil
}

// NumLevels returns the number of Vth levels.
func (s *Spec) NumLevels() int { return len(s.Levels) }

// Programmed returns the post-program Vth distribution of level i.
func (s *Spec) Programmed(i int) Gaussian {
	l := s.Levels[i]
	if i == 0 {
		return Gaussian{Mu: l.Verify, Sigma: l.Sigma}
	}
	return Gaussian{Mu: l.Verify + s.Vpp/2, Sigma: l.Sigma}
}

// LowerRef returns the lower read reference of level i with every read
// reference moved by shift volts (0 is the nominal placement; a
// negative shift is the adaptive-calibration view that tracks downward
// retention drift). The erased level's boundary stays at -Inf.
func (s *Spec) LowerRef(i int, shift float64) float64 {
	if i == 0 {
		return math.Inf(-1)
	}
	return s.ReadRefs[i-1] + shift
}

// UpperRef returns the upper read reference of level i under a read
// reference shift. Vpass is a physical property of the sense amplifier,
// not a tunable reference, so the top level's boundary never moves.
func (s *Spec) UpperRef(i int, shift float64) float64 {
	if i == len(s.Levels)-1 {
		return s.Vpass
	}
	return s.ReadRefs[i] + shift
}

// ReadLevel classifies a Vth value against the spec's read references,
// returning the level index it would be sensed as. Values above Vpass
// return the top level index plus one is not representable, so they are
// reported as the top level but callers that care about pass-voltage
// failures should use ReadLevelStrict.
func (s *Spec) ReadLevel(vth float64) int {
	for i, r := range s.ReadRefs {
		if vth < r {
			return i
		}
	}
	return len(s.Levels) - 1
}

// ReadLevelStrict is ReadLevel plus pass-voltage failure detection:
// the second result is false when vth exceeds Vpass (the cell fails to
// conduct on every sense and the read is wrong regardless of level).
func (s *Spec) ReadLevelStrict(vth float64) (int, bool) {
	if vth >= s.Vpass {
		return len(s.Levels) - 1, false
	}
	return s.ReadLevel(vth), true
}
