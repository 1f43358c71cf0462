package exp

import (
	"fmt"
	"io"

	"flexlevel/internal/accesseval"
	"flexlevel/internal/core"
	"flexlevel/internal/noise"
	"flexlevel/internal/nunma"
	"flexlevel/internal/reducecode"
	"flexlevel/internal/runner"
)

// AblationEncoding compares ReduceCode against the naive Gray-on-3-levels
// mapping it replaces (DESIGN.md §5): bits per cell and worst-case BER.
type AblationEncoding struct {
	Name         string
	BitsPerCell  float64
	CapacityLoss float64 // vs normal MLC's 2 bits/cell
	WorstBER     float64 // max of C2C and retention at P/E 6000, 1 month
}

// encodingCase pairs a device spec with the encoding evaluated on it.
type encodingCase struct {
	spec *noise.Spec
	enc  noise.Encoding
}

// EncodingAblation evaluates ReduceCode and naive Gray on the NUNMA 3
// reduced device, plus the industry-standard SLC-mode fallback on the
// regular 4-level device, one engine shard per encoding.
func EncodingAblation(cfg SimConfig) ([]AblationEncoding, error) {
	nc, err := nunma.ByName("NUNMA 3")
	if err != nil {
		return nil, err
	}
	cases := []encodingCase{
		{nc.Spec(), reducecode.Encoding()},
		{nc.Spec(), reducecode.GrayOn3Levels()},
		{nunma.SLCModeSpec(), noise.SLCMode()},
	}
	out, _, err := runner.Map(cfg.Ctx, cfg.engine("ablation-encoding"), cases,
		func(_ int, c encodingCase) string { return "encoding=" + c.enc.Name },
		func(_ runner.Shard, c encodingCase) (AblationEncoding, error) {
			m, err := noise.NewBERModel(c.spec, c.enc)
			if err != nil {
				return AblationEncoding{}, err
			}
			worst := m.C2CBER()
			if r := m.RetentionBER(6000, 720); r > worst {
				worst = r
			}
			return AblationEncoding{
				Name:         c.enc.Name,
				BitsPerCell:  c.enc.BitsPerCell,
				CapacityLoss: 1 - c.enc.BitsPerCell/2,
				WorstBER:     worst,
			}, nil
		})
	return out, err
}

// PrintEncodingAblation renders the encoding comparison.
func PrintEncodingAblation(w io.Writer, rows []AblationEncoding) {
	fmt.Fprintln(w, "Ablation — ReduceCode vs naive Gray on 3 levels")
	fmt.Fprintf(w, "  %-18s %10s %14s %12s\n", "encoding", "bits/cell", "capacity loss", "worst BER")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %10.2f %13.0f%% %12.3e\n",
			r.Name, r.BitsPerCell, 100*r.CapacityLoss, r.WorstBER)
	}
}

// AblationMargin compares NUNMA 3 against the basic uniform-margin
// LevelAdjust (§4.1 before §4.2 is applied).
type AblationMargin struct {
	Name         string
	C2CBER       float64
	RetentionBER float64 // at P/E 6000, 1 month
}

// marginCase names one margin policy and its nunma.Model scheme.
type marginCase struct {
	name   string
	scheme string
}

// MarginAblation evaluates the two margin policies, one engine shard
// per policy.
func MarginAblation(cfg SimConfig) ([]AblationMargin, error) {
	cases := []marginCase{
		{"uniform (basic §4.1)", "basic"},
		{"NUNMA 3", "NUNMA 3"},
	}
	out, _, err := runner.Map(cfg.Ctx, cfg.engine("ablation-margins"), cases,
		func(_ int, c marginCase) string { return "margins=" + c.name },
		func(_ runner.Shard, c marginCase) (AblationMargin, error) {
			m, err := nunma.Model(c.scheme)
			if err != nil {
				return AblationMargin{}, err
			}
			return AblationMargin{
				Name:         c.name,
				C2CBER:       m.C2CBER(),
				RetentionBER: m.RetentionBER(6000, 720),
			}, nil
		})
	return out, err
}

// PrintMarginAblation renders the margin comparison.
func PrintMarginAblation(w io.Writer, rows []AblationMargin) {
	fmt.Fprintln(w, "Ablation — uniform margins vs NUNMA (P/E 6000, 1 month)")
	fmt.Fprintf(w, "  %-22s %12s %14s\n", "margins", "C2C BER", "retention BER")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %12.3e %14.3e\n", r.Name, r.C2CBER, r.RetentionBER)
	}
}

// AblationHLO compares the paper's L_f × L_sensing HLO rule against a
// read-frequency-only identifier on one workload.
type AblationHLO struct {
	Rule       string
	Norm       float64 // response time vs LDPC-in-SSD
	Migrations int64
	WriteAmp   float64
}

// hloCase is one shard of the HLO-rule ablation: the LDPC-in-SSD
// reference run or one identification rule under FlexLevel.
type hloCase struct {
	name   string
	isRef  bool
	params func(uint64) accesseval.Params
}

// HLOAblation runs fin-2 under both identification rules, one engine
// shard per run (the LDPC-in-SSD normalization reference is a shard
// too; normalization happens after collection).
func HLOAblation(cfg SimConfig) ([]AblationHLO, error) {
	cases := []hloCase{
		{name: "ldpc-in-ssd (reference)", isRef: true},
		{name: "Lf x Lsensing (paper)", params: accesseval.DefaultParams},
		{name: "frequency only", params: func(lp uint64) accesseval.Params {
			p := accesseval.DefaultParams(lp)
			p.Lsensing = 1 // sensing dimension collapsed
			p.Threshold = 2
			return p
		}},
	}
	st, err := cfg.workloadStreams(len(cases), func(int) string { return "fin-2" })
	if err != nil {
		return nil, err
	}
	results, _, err := runner.Map(cfg.Ctx, cfg.engine("ablation-hlo"), cases,
		func(_ int, c hloCase) string { return "rule=" + c.name },
		func(s runner.Shard, c hloCase) (core.Metrics, error) {
			o := core.DefaultOptions(core.FlexLevel, cfg.PE)
			if c.isRef {
				o = core.DefaultOptions(core.LDPCInSSD, cfg.PE)
			} else {
				o.AccessEval = c.params(o.SSD.FTL.LogicalPages)
			}
			return cfg.replay(s, st, "fin-2", o)
		})
	if err != nil {
		return nil, err
	}
	var out []AblationHLO
	for i, m := range results[1:] {
		out = append(out, AblationHLO{
			Rule:       cases[i+1].name,
			Norm:       norm(m, results[0]),
			Migrations: m.Migrations,
			WriteAmp:   m.WriteAmp,
		})
	}
	return out, nil
}

// PrintHLOAblation renders the identification-rule comparison.
func PrintHLOAblation(w io.Writer, rows []AblationHLO) {
	fmt.Fprintln(w, "Ablation — HLO identification rule (fin-2, norm vs LDPC-in-SSD)")
	fmt.Fprintf(w, "  %-24s %8s %12s %10s\n", "rule", "norm", "migrations", "write amp")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %8.2f %12d %10.2f\n", r.Rule, r.Norm, r.Migrations, r.WriteAmp)
	}
}

// AblationPool is one point of the ReducedCell pool-size sweep.
type AblationPool struct {
	PoolFraction float64 // of logical space
	Norm         float64 // response vs LDPC-in-SSD
	CapacityLoss float64
}

// PoolSweep varies the ReducedCell pool capacity (the paper fixes it at
// a quarter of the logical space — 64GB of 256GB) and reports the
// speedup/capacity trade-off on web-1, one engine shard per pool size
// (plus one for the LDPC-in-SSD normalization reference).
func PoolSweep(cfg SimConfig, fractions []float64) ([]AblationPool, error) {
	// Shard 0 is the reference; shard i+1 is fractions[i]. A negative
	// fraction marks the reference cell.
	cells := append([]float64{-1}, fractions...)
	st, err := cfg.workloadStreams(len(cells), func(int) string { return "web-1" })
	if err != nil {
		return nil, err
	}
	results, _, err := runner.Map(cfg.Ctx, cfg.engine("ablation-pool"), cells,
		func(_ int, frac float64) string {
			if frac < 0 {
				return "ref=ldpc-in-ssd"
			}
			return fmt.Sprintf("pool=%g", frac)
		},
		func(s runner.Shard, frac float64) (core.Metrics, error) {
			o := core.DefaultOptions(core.FlexLevel, cfg.PE)
			if frac < 0 {
				o = core.DefaultOptions(core.LDPCInSSD, cfg.PE)
			} else {
				o.AccessEval = accesseval.DefaultParams(o.SSD.FTL.LogicalPages)
				o.AccessEval.PoolPages = int(float64(o.SSD.FTL.LogicalPages) * frac)
			}
			return cfg.replay(s, st, "web-1", o)
		})
	if err != nil {
		return nil, err
	}
	var out []AblationPool
	for i, m := range results[1:] {
		out = append(out, AblationPool{
			PoolFraction: fractions[i],
			Norm:         norm(m, results[0]),
			CapacityLoss: m.CapacityLoss,
		})
	}
	return out, nil
}

// PrintPoolSweep renders the pool-size trade-off.
func PrintPoolSweep(w io.Writer, rows []AblationPool) {
	fmt.Fprintln(w, "Ablation — ReducedCell pool size sweep (web-1, norm vs LDPC-in-SSD)")
	fmt.Fprintf(w, "  %-14s %8s %14s\n", "pool fraction", "norm", "capacity loss")
	for _, r := range rows {
		fmt.Fprintf(w, "  %13.1f%% %8.2f %13.2f%%\n", 100*r.PoolFraction, r.Norm, 100*r.CapacityLoss)
	}
}

// AblationScrub compares retention-relaxation scrubbing (rewrite every
// soft-sensed page; related work [10]) against FlexLevel.
type AblationScrub struct {
	Scheme       string
	Norm         float64 // response vs plain LDPC-in-SSD
	WriteAmp     float64
	CapacityLoss float64
}

// ScrubAblation runs web-1 under plain LDPC-in-SSD, LDPC-in-SSD with
// aggressive scrubbing, and FlexLevel — one engine shard each:
// scrubbing also removes repeated soft-sensed reads, but pays in write
// traffic and wear instead of capacity.
func ScrubAblation(cfg SimConfig) ([]AblationScrub, error) {
	type scrubCase struct {
		scheme string
		opts   func() core.Options
	}
	cases := []scrubCase{
		{"LDPC-in-SSD", func() core.Options { return core.DefaultOptions(core.LDPCInSSD, cfg.PE) }},
		{"+ scrubbing [10]", func() core.Options {
			o := core.DefaultOptions(core.LDPCInSSD, cfg.PE)
			o.SSD.RefreshAboveLevels = 1
			return o
		}},
		{"FlexLevel", func() core.Options { return core.DefaultOptions(core.FlexLevel, cfg.PE) }},
	}
	st, err := cfg.workloadStreams(len(cases), func(int) string { return "web-1" })
	if err != nil {
		return nil, err
	}
	results, _, err := runner.Map(cfg.Ctx, cfg.engine("ablation-scrub"), cases,
		func(_ int, c scrubCase) string { return "scheme=" + c.scheme },
		func(s runner.Shard, c scrubCase) (core.Metrics, error) {
			return cfg.replay(s, st, "web-1", c.opts())
		})
	if err != nil {
		return nil, err
	}
	ref, scrub, flex := results[0], results[1], results[2]
	return []AblationScrub{
		{Scheme: "LDPC-in-SSD", Norm: 1, WriteAmp: ref.WriteAmp, CapacityLoss: ref.CapacityLoss},
		{Scheme: "+ scrubbing [10]", Norm: norm(scrub, ref), WriteAmp: scrubWA(scrub), CapacityLoss: scrub.CapacityLoss},
		{Scheme: "FlexLevel", Norm: norm(flex, ref), WriteAmp: scrubWA(flex), CapacityLoss: flex.CapacityLoss},
	}, nil
}

// scrubWA folds refresh programs into the write-amplification view:
// TotalPrograms already includes migrations/refreshes, so report
// programs per user write directly.
func scrubWA(m core.Metrics) float64 {
	if m.UserWrites == 0 {
		return float64(m.TotalPrograms)
	}
	return float64(m.TotalPrograms) / float64(m.UserWrites)
}

// PrintScrubAblation renders the comparison.
func PrintScrubAblation(w io.Writer, rows []AblationScrub) {
	fmt.Fprintln(w, "Ablation — scrubbing (retention relaxation [10]) vs FlexLevel (web-1)")
	fmt.Fprintf(w, "  %-18s %8s %12s %14s\n", "scheme", "norm", "programs/wr", "capacity loss")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %8.2f %12.1f %13.2f%%\n", r.Scheme, r.Norm, r.WriteAmp, 100*r.CapacityLoss)
	}
	fmt.Fprintln(w, "  (scrubbing buys read speed with writes and wear; FlexLevel with bounded capacity)")
}

// AblationChannels reports FlexLevel's gain at different channel counts.
type AblationChannels struct {
	Channels  int
	Reduction float64 // FlexLevel vs LDPC-in-SSD on web-1
}

// ChannelAblation asks whether channel parallelism hides the soft-
// sensing latency FlexLevel removes. Each (channel count, system) run
// is one engine shard; reductions pair up after collection.
func ChannelAblation(cfg SimConfig, channelCounts []int) ([]AblationChannels, error) {
	type chCell struct {
		Channels int
		System   core.System
	}
	var cells []chCell
	for _, ch := range channelCounts {
		cells = append(cells, chCell{ch, core.LDPCInSSD}, chCell{ch, core.FlexLevel})
	}
	st, err := cfg.workloadStreams(len(cells), func(int) string { return "web-1" })
	if err != nil {
		return nil, err
	}
	results, _, err := runner.Map(cfg.Ctx, cfg.engine("ablation-channels"), cells,
		func(_ int, c chCell) string { return fmt.Sprintf("channels=%d/system=%v", c.Channels, c.System) },
		func(s runner.Shard, c chCell) (core.Metrics, error) {
			o := core.DefaultOptions(c.System, cfg.PE)
			o.SSD.Channels = c.Channels
			return cfg.replay(s, st, "web-1", o)
		})
	if err != nil {
		return nil, err
	}
	var out []AblationChannels
	for i, ch := range channelCounts {
		ref, flex := results[2*i], results[2*i+1]
		red := 0.0
		if ref.AvgResponse > 0 {
			red = 1 - flex.AvgResponse/ref.AvgResponse
		}
		out = append(out, AblationChannels{Channels: ch, Reduction: red})
	}
	return out, nil
}

// PrintChannelAblation renders the sweep.
func PrintChannelAblation(w io.Writer, rows []AblationChannels) {
	fmt.Fprintln(w, "Ablation — FlexLevel gain vs channel parallelism (web-1, vs LDPC-in-SSD)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %2d channels: %5.0f%% reduction\n", r.Channels, 100*r.Reduction)
	}
}
