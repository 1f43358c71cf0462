// Arrival-process models. The paper's evaluation replays steady
// Poisson streams; real fleets see on/off bursts and diurnal tides.
// An ArrivalModel turns a workload's request budget into arrival
// times under one of those shapes — deterministically, from the
// workload's own rand stream — so the scenario sweeps can cross load
// shape with fault rate and queue depth (DESIGN.md §14). Closed-loop
// submission is not a model: arrivals carry no information when the
// host paces itself, so CloseLoop zeroes them instead.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Arrival model names as written in scenario specs and CSV artifacts.
const (
	SteadyModel  = "steady"
	BurstModel   = "burst"
	DiurnalModel = "diurnal"
)

// ArrivalModel generates the gap to a workload's next request. Gap may
// depend on the clock position (burst and diurnal rates are functions
// of time) and must draw all randomness from rng, so a stream is a
// pure function of its seed.
type ArrivalModel interface {
	// Name identifies the model in specs and artifacts.
	Name() string
	// Validate reports parameter problems.
	Validate() error
	// Gap returns the interarrival gap from clock position now to the
	// next request. The gap is never negative.
	Gap(rng *rand.Rand, now time.Duration) time.Duration
}

// Steady is a homogeneous Poisson process: exponential gaps around a
// fixed mean. It is Workload.Generate's arrival process when the
// workload names none.
type Steady struct {
	Mean time.Duration // mean interarrival gap
}

// Name implements ArrivalModel.
func (s Steady) Name() string { return SteadyModel }

// Validate implements ArrivalModel.
func (s Steady) Validate() error {
	if s.Mean <= 0 {
		return fmt.Errorf("trace: steady arrivals need positive mean, have %v", s.Mean)
	}
	return nil
}

// Gap implements ArrivalModel.
func (s Steady) Gap(rng *rand.Rand, _ time.Duration) time.Duration {
	return clampGap(rng.ExpFloat64() * float64(s.Mean))
}

// Burst is an on/off process: each Period opens with an "on" window
// covering Duty of it, and every arrival lands inside an on window.
// The long-run rate still averages 1/Mean — the same request budget is
// compressed into the on windows, so the instantaneous on-rate is
// 1/(Mean·Duty) and the off windows are silent. This is the shape that
// stresses queue-depth limits and the reduced-cell pool: deep backlogs
// during bursts, idle retention drift between them.
type Burst struct {
	Mean   time.Duration // long-run mean interarrival gap
	Period time.Duration // on/off cycle length
	Duty   float64       // fraction of each period that is "on", in (0, 1)
}

// Name implements ArrivalModel.
func (b Burst) Name() string { return BurstModel }

// Validate implements ArrivalModel.
func (b Burst) Validate() error {
	if b.Mean <= 0 {
		return fmt.Errorf("trace: burst arrivals need positive mean, have %v", b.Mean)
	}
	if b.Period <= 0 {
		return fmt.Errorf("trace: burst arrivals need positive period, have %v", b.Period)
	}
	if !(b.Duty > 0 && b.Duty < 1) {
		return fmt.Errorf("trace: burst duty %g out of (0,1)", b.Duty)
	}
	return nil
}

// Gap implements ArrivalModel. The next arrival consumes an
// exponential amount of on-time (mean Mean·Duty); off windows are
// skipped, never consumed — so arrivals provably respect the duty
// cycle, which the property tests assert exactly.
func (b Burst) Gap(rng *rand.Rand, now time.Duration) time.Duration {
	need := rng.ExpFloat64() * float64(b.Mean) * b.Duty
	period := float64(b.Period)
	onLen := b.Duty * period
	t := float64(now)
	phase := math.Mod(t, period)
	for {
		if phase < onLen {
			avail := onLen - phase
			if need < avail {
				return clampGap(t + need - float64(now))
			}
			need -= avail
			t += avail
			phase = onLen
		}
		// Jump the silent remainder of this period.
		t += period - phase
		phase = 0
	}
}

// Diurnal modulates a Poisson process with a sinusoidal rate,
// λ(t) = (1 + Amplitude·sin(2πt/Period)) / Mean — the day/night tide
// of a fleet, scaled down to simulation time. Arrivals are generated
// by Lewis–Shedler thinning against the peak rate, so the process is
// exact, not a per-gap approximation.
type Diurnal struct {
	Mean      time.Duration // long-run mean interarrival gap
	Period    time.Duration // cycle length
	Amplitude float64       // rate swing, in [0, 1)
}

// Name implements ArrivalModel.
func (d Diurnal) Name() string { return DiurnalModel }

// Validate implements ArrivalModel.
func (d Diurnal) Validate() error {
	if d.Mean <= 0 {
		return fmt.Errorf("trace: diurnal arrivals need positive mean, have %v", d.Mean)
	}
	if d.Period <= 0 {
		return fmt.Errorf("trace: diurnal arrivals need positive period, have %v", d.Period)
	}
	if !(d.Amplitude >= 0 && d.Amplitude < 1) {
		return fmt.Errorf("trace: diurnal amplitude %g out of [0,1)", d.Amplitude)
	}
	return nil
}

// Gap implements ArrivalModel.
func (d Diurnal) Gap(rng *rand.Rand, now time.Duration) time.Duration {
	peak := 1 + d.Amplitude // rate multiplier at the crest
	meanAtPeak := float64(d.Mean) / peak
	period := float64(d.Period)
	t := float64(now)
	for {
		t += rng.ExpFloat64() * meanAtPeak
		phase := 2 * math.Pi * math.Mod(t, period) / period
		rate := 1 + d.Amplitude*math.Sin(phase)
		// Accept with probability rate/peak; rejection keeps thinning.
		// Amplitude < 1 bounds the acceptance odds away from zero, so
		// the loop terminates.
		if rng.Float64()*peak <= rate {
			return clampGap(t - float64(now))
		}
	}
}

// clampGap converts a float gap in nanoseconds back to a Duration,
// flooring tiny negative round-off at zero.
func clampGap(ns float64) time.Duration {
	if ns <= 0 {
		return 0
	}
	return time.Duration(ns)
}
