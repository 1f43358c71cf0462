package exp

import (
	"fmt"
	"io"

	"flexlevel/internal/core"
	"flexlevel/internal/fault"
	"flexlevel/internal/runner"
)

// Reliability experiment: the paper evaluates FlexLevel on a fault-free
// device; this study asks whether its latency advantage survives on a
// realistically failing one. A wear-correlated fault injector produces
// program/erase failures, grown bad blocks and transient uncorrectable
// reads while a write-heavy workload runs, and the sweep scales all
// fault rates together from zero (the paper's setting) upward.

// pageBits is the payload of one 16KB logical page, the denominator of
// the effective-UBER metric (one uncorrectable event per lost page).
const pageBits = 16 * 1024 * 8

// ReliabilityWorkload is the trace driven through the faulty device:
// fin-2 is the write-heaviest of the paper's workloads, so it exercises
// program/erase faults and GC the hardest.
const ReliabilityWorkload = "fin-2"

// ReliabilitySystems are the compared systems: the no-scheme baseline,
// the strongest prior (LDPC-in-SSD) and FlexLevel.
func ReliabilitySystems() []core.System {
	return []core.System{core.Baseline, core.LDPCInSSD, core.FlexLevel}
}

// DefaultFaultConfig returns the wear-correlated rate curves of the
// sweep's 1x point. The Weibull scale sits at 8000 P/E with shape 3, so
// failure rates turn up sharply as blocks approach end of life; the
// bases model wear-independent infant/random failures. Magnitudes are
// chosen so a 60k-request run at P/E 6000 sees tens of block
// retirements — heavy enough to measure, light enough that the device
// stays serviceable at 1x.
func DefaultFaultConfig(seed int64) fault.Config {
	return fault.Config{
		Seed:    seed,
		Program: fault.RateCurve{Base: 2e-5, Amp: 2e-3, Scale: 8000, Shape: 3},
		Erase:   fault.RateCurve{Base: 1e-4, Amp: 5e-3, Scale: 8000, Shape: 3},
		Grown:   fault.RateCurve{Base: 0, Amp: 1e-3, Scale: 8000, Shape: 3},
		Read:    fault.RateCurve{Base: 1e-5, Amp: 2e-3, Scale: 8000, Shape: 3},
	}
}

// reliabilitySpares sizes the spare-block pool at ~3% of the device.
func reliabilitySpares(blocks int) int {
	s := blocks / 32
	if s < 2 {
		s = 2
	}
	return s
}

// ReliabilityRow is one (fault scale, system) cell of the sweep.
type ReliabilityRow struct {
	Scale  float64
	System core.System
	core.Metrics

	// EffectiveUBER counts one uncorrectable event per page declared
	// lost, over all bits read in the measured phase.
	EffectiveUBER float64
}

// reliabilityCell is one (fault scale, system) shard of the sweep.
type reliabilityCell struct {
	Scale  float64
	System core.System
}

// Reliability sweeps the fault-rate multiplier and replays the workload
// under each system, one engine shard per (scale, system) cell. The
// fault injector of each cell is seeded from the shard's derived seed
// (hash of master seed and cell key), so cells share no RNG and the
// sweep is byte-identical for any worker count. Scale 0 reproduces the
// fault-free evaluation bit-identically.
func Reliability(cfg SimConfig, scales []float64) ([]ReliabilityRow, error) {
	var cells []reliabilityCell
	for _, scale := range scales {
		for _, sys := range ReliabilitySystems() {
			cells = append(cells, reliabilityCell{Scale: scale, System: sys})
		}
	}
	st, err := cfg.workloadStreams(len(cells), func(int) string { return ReliabilityWorkload })
	if err != nil {
		return nil, err
	}
	rows, _, err := runner.Map(cfg.Ctx, cfg.engine("reliability"), cells,
		func(_ int, c reliabilityCell) string {
			return fmt.Sprintf("scale=%g/system=%v", c.Scale, c.System)
		},
		func(s runner.Shard, c reliabilityCell) (ReliabilityRow, error) {
			opts := core.DefaultOptions(c.System, cfg.PE)
			opts.SSD.FTL.SpareBlocks = reliabilitySpares(opts.SSD.FTL.Blocks)
			opts.SSD.Faults = DefaultFaultConfig(s.Seed).Scaled(c.Scale)
			m, err := cfg.replay(s, st, ReliabilityWorkload, opts)
			if err != nil {
				return ReliabilityRow{}, err
			}
			row := ReliabilityRow{Scale: c.Scale, System: c.System, Metrics: m}
			if m.Reads > 0 {
				row.EffectiveUBER = float64(m.DataLoss) / (float64(m.Reads) * pageBits)
			}
			return row, nil
		})
	return rows, err
}

// PrintReliability renders the sweep.
func PrintReliability(w io.Writer, rows []ReliabilityRow) {
	fmt.Fprintf(w, "Reliability under fault injection — %s workload, wear-correlated fault curves\n", ReliabilityWorkload)
	fmt.Fprintf(w, "  %-6s %-22s %9s %9s %7s %7s %6s %8s %9s %10s %9s\n",
		"scale", "system", "avg resp", "avg read", "retired", "spares", "wrrej", "rdfault", "dataloss", "eff UBER", "WA")
	for _, r := range rows {
		degraded := ""
		if r.Degraded {
			degraded = "  DEGRADED"
		}
		fmt.Fprintf(w, "  %-6.2g %-22s %7.1fµs %7.1fµs %7d %7d %6d %8d %9d %10.2e %9.2f%s\n",
			r.Scale, r.System,
			r.AvgResponse*1e6, r.AvgRead*1e6,
			r.RetiredBlocks, r.SparesUsed, r.WritesRejected,
			r.TransientReadFaults, r.DataLoss, r.EffectiveUBER, r.WriteAmp, degraded)
	}
	// Read-latency impact of faults: compare each system's top-scale
	// read latency against its own fault-free run.
	base := map[core.System]float64{}
	last := map[core.System]ReliabilityRow{}
	for _, r := range rows {
		if r.Scale == 0 {
			base[r.System] = r.AvgRead
		}
		last[r.System] = r
	}
	for _, sys := range ReliabilitySystems() {
		b, l := base[sys], last[sys]
		if b > 0 && l.Scale > 0 {
			fmt.Fprintf(w, "  read-latency impact at %.2gx for %v: %+.1f%%\n",
				l.Scale, sys, 100*(l.AvgRead/b-1))
		}
	}
}
