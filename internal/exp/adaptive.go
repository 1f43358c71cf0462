// The adaptive-calibration sweep: the paper (and every sweep above)
// reads at read references fixed at program time. This head-to-head
// study drives the same read-dominant workload through each scheme —
// the baseline MLC under progressive retry and the three NUNMA
// reduced-state configurations — twice per grid point: once static, and
// once with the online per-block threshold calibration ladder enabled
// (DESIGN.md §13). The grid spans P/E wear x retention drift, reaching
// past the static unreadable cliff (baseline MLC and NUNMA 1 cannot
// decode their oldest pages at nominal references at the far corner),
// so the sweep measures exactly what calibration buys: mean sensing
// levels, unreadable reads, and the probe/rescue traffic paid for them.
package exp

import (
	"fmt"
	"io"

	"flexlevel/internal/core"
	"flexlevel/internal/nunma"
	"flexlevel/internal/runner"
)

// AdaptivePEs are the P/E wear points of the grid: the paper's mid and
// end-of-life evaluation points.
var AdaptivePEs = []int{4000, 6000}

// AdaptiveAges are the retention-drift columns: the paper's 1-month
// maximum and a 3-month overstay past the static cliff.
var AdaptiveAges = []float64{720, 2160}

// AdaptiveWorkload is the replayed trace: web-1 is 99% reads over the
// full working set, so the read path under drift dominates the numbers.
const AdaptiveWorkload = "web-1"

// Adaptive sweep modes.
const (
	StaticMode   = "static"
	AdaptiveMode = "adaptive"
)

// AdaptiveScheme is one compared read scheme: a system plus the NUNMA
// configuration its reduced pool uses.
type AdaptiveScheme struct {
	Name   string
	System core.System
	NUNMA  string
}

// AdaptiveSchemes lists the compared schemes: the baseline MLC cell
// under progressive read retry (all data in the normal pool), then the
// three reduced-state configurations with every page in the reduced
// pool, so each scheme's cell physics is read undiluted.
func AdaptiveSchemes() []AdaptiveScheme {
	schemes := []AdaptiveScheme{{Name: "baseline-mlc", System: core.LDPCInSSD, NUNMA: "NUNMA 3"}}
	for _, cfg := range nunma.Table3() {
		schemes = append(schemes, AdaptiveScheme{Name: cfg.Name, System: core.LevelAdjustOnly, NUNMA: cfg.Name})
	}
	return schemes
}

// AdaptiveRow is one (scheme, mode, pe, age) cell of the sweep.
type AdaptiveRow struct {
	Scheme   string
	Mode     string
	PE       int
	AgeHours float64
	// MeanLevels is the mean final sensing level over all reads (the
	// sweep's latency-side headline).
	MeanLevels float64
	core.Metrics
}

// adaptiveCell is one shard of the sweep.
type adaptiveCell struct {
	Scheme AdaptiveScheme
	Mode   string
	PE     int
	Age    float64
}

// meanLevels reduces a final-sensing-level histogram to its mean.
func meanLevels(h [8]int64) float64 {
	var n, sum int64
	for l, c := range h {
		n += c
		sum += int64(l) * c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Adaptive runs the head-to-head grid, one engine shard per (scheme,
// mode, pe, age) cell. Static and adaptive cells are built from the
// same options except Config.Calib, so every difference in the row pair
// is attributable to the calibration ladder. Shards share no state and
// the sweep is byte-identical for any worker count.
func Adaptive(cfg SimConfig) ([]AdaptiveRow, error) {
	var cells []adaptiveCell
	for _, scheme := range AdaptiveSchemes() {
		for _, pe := range AdaptivePEs {
			for _, age := range AdaptiveAges {
				for _, mode := range []string{StaticMode, AdaptiveMode} {
					cells = append(cells, adaptiveCell{Scheme: scheme, Mode: mode, PE: pe, Age: age})
				}
			}
		}
	}
	st, err := cfg.workloadStreams(len(cells), func(int) string { return AdaptiveWorkload })
	if err != nil {
		return nil, err
	}
	rows, _, err := runner.Map(cfg.Ctx, cfg.engine("adaptive"), cells,
		func(_ int, c adaptiveCell) string {
			return fmt.Sprintf("scheme=%s/mode=%s/pe=%d/age=%g", c.Scheme.Name, c.Mode, c.PE, c.Age)
		},
		func(s runner.Shard, c adaptiveCell) (AdaptiveRow, error) {
			opts := core.DefaultOptions(c.Scheme.System, c.PE)
			opts.NUNMAConfig = c.Scheme.NUNMA
			opts.SSD.MaxDataAgeHours = c.Age
			// Reduced-pool schemes need their preload aged like the normal
			// pool's, or their reads never see the drift being studied.
			opts.AgedReducedPreload = true
			if c.Mode == AdaptiveMode {
				opts.SSD.Calib = true
			}
			m, err := cfg.replay(s, st, AdaptiveWorkload, opts)
			if err != nil {
				return AdaptiveRow{}, err
			}
			return AdaptiveRow{
				Scheme: c.Scheme.Name, Mode: c.Mode, PE: c.PE, AgeHours: c.Age,
				MeanLevels: meanLevels(m.LevelHist), Metrics: m,
			}, nil
		})
	return rows, err
}

// adaptivePairs indexes the rows into (static, adaptive) pairs keyed by
// grid point, preserving first-seen order.
func adaptivePairs(rows []AdaptiveRow) (keys []string, static, adaptive map[string]AdaptiveRow) {
	static = map[string]AdaptiveRow{}
	adaptive = map[string]AdaptiveRow{}
	for _, r := range rows {
		key := fmt.Sprintf("%s pe=%d age=%gh", r.Scheme, r.PE, r.AgeHours)
		m := static
		if r.Mode == AdaptiveMode {
			m = adaptive
		}
		if _, dup := m[key]; !dup {
			m[key] = r
			if r.Mode == StaticMode {
				keys = append(keys, key)
			}
		}
	}
	return keys, static, adaptive
}

// PrintAdaptive renders the head-to-head grid and the per-point deltas.
func PrintAdaptive(w io.Writer, rows []AdaptiveRow) {
	fmt.Fprintf(w, "Adaptive read-threshold calibration vs static references — %s workload\n", AdaptiveWorkload)
	fmt.Fprintf(w, "  %-14s %-8s %-6s %-6s %9s %9s %9s %7s %7s %7s %7s\n",
		"scheme", "mode", "P/E", "age h", "mean lev", "avg read", "unread", "recal", "probes", "rescue", "retire")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %-8s %-6d %-6.0f %9.3f %7.1fµs %9d %7d %7d %7d %7d\n",
			r.Scheme, r.Mode, r.PE, r.AgeHours, r.MeanLevels, r.AvgRead*1e6,
			r.Unreadable, r.Recalibrations, r.CalibProbes, r.CalibRescues, r.EscalatedRetirements)
	}
	keys, static, adaptive := adaptivePairs(rows)
	for _, key := range keys {
		s, okS := static[key], true
		a, okA := adaptive[key]
		if !okS || !okA {
			continue
		}
		fmt.Fprintf(w, "  %-32s mean levels %.3f -> %.3f, unreadable %d -> %d\n",
			key, s.MeanLevels, a.MeanLevels, s.Unreadable, a.Unreadable)
	}
}
