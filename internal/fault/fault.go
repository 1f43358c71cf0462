// Package fault is a deterministic, seedable fault injector for the
// storage-system simulator. Real MLC NAND fails in wear-correlated ways
// (Cai et al., PAPERS.md): program-status failures, erase failures,
// grown bad blocks and transient uncorrectable reads all become more
// likely as a block accumulates P/E cycles. The injector models each
// media fault class with a Weibull/exponential rate curve of block
// wear, and additionally supports a table-driven "script" mode that
// fires exact faults at exact operation indexes for reproducible tests.
// Power loss is not a wear effect and has no curve: it fires only where
// a script puts it.
//
// Determinism: every stochastic draw comes from a private source seeded
// by Config.Seed and draws occur in check order, so a given Config and
// check sequence always yields the same fault sequence. Checks against a
// zero-rate class never touch the RNG, so enabling one class does not
// perturb another.
package fault

import (
	"fmt"
	"math"
	"math/rand"
)

// Op identifies a fault class / the physical operation it afflicts.
type Op int

const (
	// Program is a program-status failure: the page program completes
	// its pulse sequence but the status read reports failure.
	Program Op = iota
	// Erase is an erase-status failure: the block cannot be erased and
	// must be retired.
	Erase
	// Grown marks a block that erases successfully but is detected as
	// worn out (a grown bad block) and retired anyway.
	Grown
	// Read is a transient uncorrectable read: the sensing attempt fails
	// to decode but a retry (possibly at a higher sensing level) may
	// succeed.
	Read
	// PowerLoss cuts power mid-operation: the physical program or erase
	// in flight is torn, every volatile controller structure is lost,
	// and the device stays down until recovery replays its durable
	// metadata. The FTL performs one PowerLoss check per physical media
	// operation, so a script event {PowerLoss, N} means "die during the
	// Nth NAND program/erase" (0-based) — mid-GC, mid-migration,
	// mid-retirement, or between the two program steps of a reduced
	// page, depending on where N lands. Only a script fires it.
	PowerLoss
	// NumOps is the number of fault classes.
	NumOps
)

func (o Op) String() string {
	switch o {
	case Program:
		return "program"
	case Erase:
		return "erase"
	case Grown:
		return "grown"
	case Read:
		return "read"
	case PowerLoss:
		return "power-loss"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// RateCurve is a per-operation failure probability that grows with block
// wear following a Weibull CDF:
//
//	p(pe) = Base + Amp · (1 − exp(−(pe/Scale)^Shape))
//
// Base is the wear-independent floor (infant/random failures), Amp the
// additional probability approached at high wear, Scale the
// characteristic life in P/E cycles and Shape the Weibull shape
// parameter (0 or 1 gives the exponential special case). The zero value
// never fires.
type RateCurve struct {
	Base  float64
	Amp   float64
	Scale float64
	Shape float64
}

// Zero reports whether the curve can never fire.
func (c RateCurve) Zero() bool { return c.Base == 0 && c.Amp == 0 }

// Prob returns the failure probability of one operation on a block with
// pe program/erase cycles of wear.
func (c RateCurve) Prob(pe int) float64 {
	p := c.Base
	if c.Amp > 0 && c.Scale > 0 {
		shape := c.Shape
		if shape <= 0 {
			shape = 1
		}
		x := float64(pe) / c.Scale
		p += c.Amp * (1 - math.Exp(-math.Pow(x, shape)))
	}
	if p > 1 {
		return 1
	}
	return p
}

// Validate reports structural problems. The range checks are written
// so that a NaN field fails them.
func (c RateCurve) Validate() error {
	if !(c.Base >= 0 && c.Base <= 1) {
		return fmt.Errorf("fault: base probability %g out of [0,1]", c.Base)
	}
	if !(c.Amp >= 0 && c.Base+c.Amp <= 1) {
		return fmt.Errorf("fault: base+amp %g out of [0,1]", c.Base+c.Amp)
	}
	if math.IsNaN(c.Scale) || c.Amp > 0 && c.Scale <= 0 {
		return fmt.Errorf("fault: wear-scaled curve needs positive scale, got %g", c.Scale)
	}
	if !(c.Shape >= 0) {
		return fmt.Errorf("fault: Weibull shape %g not >= 0", c.Shape)
	}
	return nil
}

// scaled multiplies the curve's probabilities by m, clamping so the
// result stays a valid probability.
func (c RateCurve) scaled(m float64) RateCurve {
	c.Base *= m
	c.Amp *= m
	if sum := c.Base + c.Amp; sum > 1 {
		c.Base /= sum
		c.Amp /= sum
	}
	return c
}

// ScriptEvent pins one exact fault: the Index'th check (0-based, counted
// per class) of class Op reports failure.
type ScriptEvent struct {
	Op    Op
	Index int64
}

// Config parameterizes an Injector. The zero value disables injection
// entirely.
type Config struct {
	Seed int64

	// One rate curve per media fault class.
	Program RateCurve
	Erase   RateCurve
	Grown   RateCurve
	Read    RateCurve

	// Script, when non-empty, replaces the stochastic curves entirely:
	// exactly the listed checks fail and nothing else, with no RNG use.
	Script []ScriptEvent
}

// Enabled reports whether the configuration can ever inject a fault.
func (c Config) Enabled() bool {
	return len(c.Script) > 0 ||
		!c.Program.Zero() || !c.Erase.Zero() || !c.Grown.Zero() ||
		!c.Read.Zero()
}

// Scaled returns a copy with every curve's probability multiplied by m
// (the sweep knob of the reliability experiments). The script is kept
// as-is. m must be >= 0; 0 disables all stochastic classes.
func (c Config) Scaled(m float64) Config {
	if m < 0 {
		m = 0
	}
	c.Program = c.Program.scaled(m)
	c.Erase = c.Erase.scaled(m)
	c.Grown = c.Grown.scaled(m)
	c.Read = c.Read.scaled(m)
	return c
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	for _, cl := range []struct {
		name  string
		curve RateCurve
	}{
		{"program", c.Program}, {"erase", c.Erase}, {"grown", c.Grown},
		{"read", c.Read},
	} {
		if err := cl.curve.Validate(); err != nil {
			return fmt.Errorf("%w (%s class)", err, cl.name)
		}
	}
	for i, ev := range c.Script {
		if ev.Op < 0 || ev.Op >= NumOps {
			return fmt.Errorf("fault: script event %d has unknown op %d", i, int(ev.Op))
		}
		if ev.Index < 0 {
			return fmt.Errorf("fault: script event %d has negative index %d", i, ev.Index)
		}
	}
	return nil
}

// Injector decides, one physical operation at a time, whether that
// operation fails. It is not safe for concurrent use (the simulator is
// single-threaded by design).
type Injector struct {
	cfg    Config
	rng    *rand.Rand
	script [NumOps]map[int64]bool
	// checked counts the checks of each class: the index a script
	// event names.
	checked [NumOps]int64
	// probs[op][pe] memoizes curve(op).Prob(pe), grown on demand; a
	// negative entry is not yet computed.
	probs [NumOps][]float64
}

// New builds an Injector. A nil Injector is valid and never fails
// anything, so callers may keep the result of New on a disabled Config.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	for _, ev := range cfg.Script {
		if inj.script[ev.Op] == nil {
			inj.script[ev.Op] = make(map[int64]bool)
		}
		inj.script[ev.Op][ev.Index] = true
	}
	return inj, nil
}

// curve returns the rate curve of a class; PowerLoss has none.
func (i *Injector) curve(op Op) RateCurve {
	switch op {
	case Program:
		return i.cfg.Program
	case Erase:
		return i.cfg.Erase
	case Grown:
		return i.cfg.Grown
	case Read:
		return i.cfg.Read
	default:
		return RateCurve{}
	}
}

// prob is curve(op).Prob(pe), memoized per class and P/E count: Prob
// is pure, and Fails asks it on every physical operation.
func (i *Injector) prob(op Op, pe int) float64 {
	if pe < 0 {
		return i.curve(op).Prob(pe)
	}
	memo := i.probs[op]
	if pe >= len(memo) {
		n := max(pe+1, 2*len(memo))
		grown := make([]float64, n)
		copy(grown, memo)
		for j := len(memo); j < n; j++ {
			grown[j] = -1
		}
		memo = grown
		i.probs[op] = memo
	}
	if memo[pe] < 0 {
		memo[pe] = i.curve(op).Prob(pe)
	}
	return memo[pe]
}

// Fails reports whether this check's physical operation fails. block is
// the physical block the operation targets and pe its current wear. Safe
// on a nil receiver (always false).
func (i *Injector) Fails(op Op, block, pe int) bool {
	if i == nil || op < 0 || op >= NumOps {
		return false
	}
	_ = block // per-block scripting is a future extension
	n := i.checked[op]
	i.checked[op]++
	if len(i.cfg.Script) > 0 {
		return i.script[op][n]
	}
	p := i.prob(op, pe)
	if p <= 0 {
		return false // zero-rate class: no RNG draw
	}
	return p >= 1 || i.rng.Float64() < p
}
