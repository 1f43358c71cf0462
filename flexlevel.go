// Package flexlevel is the public API of the FlexLevel reproduction — a
// NAND flash storage system design that reduces soft-decision LDPC read
// latency by selectively reducing the number of threshold-voltage levels
// of high-LDPC-overhead data (Guo et al., DAC 2015).
//
// The package re-exports the pieces a downstream user needs:
//
//   - Device physics: BER of the normal MLC state and the LevelAdjust /
//     NUNMA reduced states under cell-to-cell interference and retention
//     charge loss (DeviceBER, Schemes).
//   - Sensing cost: the raw-BER → extra-soft-sensing-levels rule and the
//     Table 6 read-latency model (RequiredSensingLevels, ReadLatency).
//   - ReduceCode: the 3-bits-per-cell-pair codec (EncodePair,
//     DecodePair).
//   - Full-system simulation: the four evaluated storage systems over
//     the seven synthetic workloads (Run, Workloads, Systems).
//
// The implementation lives in internal/ packages; see DESIGN.md for the
// system inventory and EXPERIMENTS.md for the paper-vs-measured record.
package flexlevel

import (
	"fmt"
	"time"

	"flexlevel/internal/core"
	"flexlevel/internal/nunma"
	"flexlevel/internal/reducecode"
	"flexlevel/internal/sensing"
	"flexlevel/internal/trace"
)

// System identifies one of the four evaluated storage systems.
type System = core.System

// The four storage systems of the paper's evaluation (§6.2).
const (
	// Baseline is soft-decision LDPC with worst-case fixed sensing.
	Baseline = core.Baseline
	// LDPCInSSD is progressive read retry with per-block memory [2].
	LDPCInSSD = core.LDPCInSSD
	// LevelAdjustOnly applies LevelAdjust to every page.
	LevelAdjustOnly = core.LevelAdjustOnly
	// FlexLevel is LevelAdjust + AccessEval (the paper's design).
	FlexLevel = core.FlexLevel
)

// Metrics is the outcome of one workload run.
type Metrics = core.Metrics

// Systems lists the four systems in evaluation order.
func Systems() []System { return core.Systems() }

// Workloads lists the names of the seven evaluation workloads.
func Workloads() []string {
	var names []string
	for _, w := range trace.Workloads(1, 1024, 1) {
		names = append(names, w.Name)
	}
	return names
}

// Run replays one synthetic workload (by name) under the given system at
// a P/E cycle point, with requests I/O requests, and returns the
// measured metrics.
func Run(sys System, pe int, workload string, requests int) (Metrics, error) {
	opts := core.DefaultOptions(sys, pe)
	w, err := trace.ByName(workload, requests, opts.SSD.FTL.LogicalPages, 1)
	if err != nil {
		return Metrics{}, err
	}
	reqs, err := w.Generate()
	if err != nil {
		return Metrics{}, err
	}
	r, err := core.NewRunner(opts)
	if err != nil {
		return Metrics{}, err
	}
	return r.Replay(nil, w.Name, reqs, w.WorkingSet, 0)
}

// Schemes lists the device-level schemes DeviceBER accepts.
func Schemes() []string {
	names := []string{"baseline", "basic"}
	for _, c := range nunma.Table3() {
		names = append(names, c.Name)
	}
	return names
}

// DeviceBER evaluates the device-physics models for a scheme: the
// cell-to-cell interference BER and the retention BER after pe
// program/erase cycles and hours of storage.
func DeviceBER(scheme string, pe int, hours float64) (c2c, retention float64, err error) {
	m, err := nunma.Model(scheme)
	if err != nil {
		return 0, 0, fmt.Errorf("flexlevel: unknown scheme %q (want one of %v)", scheme, Schemes())
	}
	return m.C2CBER(), m.RetentionBER(pe, hours), nil
}

// RequiredSensingLevels returns the extra soft sensing levels an LDPC
// read needs at raw BER ber to meet the 1e-15 UBER target with the
// paper's rate-8/9 code. The second result is false when even the device
// maximum is insufficient (the page must be refreshed).
func RequiredSensingLevels(ber float64) (int, bool) {
	return sensing.DefaultRule().RequiredLevels(ber)
}

// ReadLatency returns the read latency at the given extra sensing level
// count under the Table 6 timing model (90µs per sensing pass).
func ReadLatency(extraLevels int) time.Duration {
	return sensing.DefaultTiming().ReadLatency(extraLevels)
}

// EncodePair maps a 3-bit value (0..7) to the Vth levels of a
// reduced-state cell pair per the paper's Table 1. The two results are
// in [0, 2].
func EncodePair(v uint8) (vthI, vthII uint8) {
	p := reducecode.Encode(v)
	return p.I, p.II
}

// DecodePair reverses EncodePair; the unused (1,2) combination resolves
// per the documented retention-favouring policy.
func DecodePair(vthI, vthII uint8) uint8 {
	return reducecode.DecodeClosest(reducecode.LevelPair{I: vthI, II: vthII})
}

// ReducedCapacityFactor is the storage density of reduced-state cells
// relative to normal MLC (3 bits per cell pair instead of 4).
const ReducedCapacityFactor = reducecode.CapacityFactor

// RelativeLifetime implements the paper's Fig. 7(c) lifetime model: the
// writable volume of a system with sysWA write amplification (active
// only above activatePE) relative to a reference system at refWA, with
// blocks rated for endurance cycles.
func RelativeLifetime(refWA, sysWA float64, activatePE, endurance int) float64 {
	return core.RelativeLifetime(refWA, sysWA, activatePE, endurance)
}
