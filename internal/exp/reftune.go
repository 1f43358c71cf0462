package exp

import (
	"fmt"
	"io"

	"flexlevel/internal/noise"
	"flexlevel/internal/nunma"
	"flexlevel/internal/runner"
	"flexlevel/internal/sensing"
)

// RefTuneRow compares one mitigation's BER and sensing cost at a wear
// point.
type RefTuneRow struct {
	Scheme string
	BER    float64
	Levels int
}

// RefTuneAblation asks whether read-reference tuning (related work, ref
// [11]) can substitute for LevelAdjust at the paper's worst corner: it
// compares the stock baseline, the reference-tuned baseline, and the
// NUNMA 3 reduced state at (P/E 6000, 1 month), reporting the raw BER
// and the soft sensing levels each still needs. Each scheme is one
// engine shard (reference tuning runs a grid search, the costly cell).
func RefTuneAblation(cfg SimConfig, pe int, hours float64) ([]RefTuneRow, error) {
	// A case with a model scheme reads that cell at nominal references;
	// the reference-tuned baseline runs the grid search instead.
	type refTuneCase struct{ name, model string }
	cases := []refTuneCase{
		{"baseline MLC", "baseline"},
		{"baseline + ref tuning", ""},
		{"LevelAdjust (NUNMA 3)", "NUNMA 3"},
	}
	rows, _, err := runner.Map(cfg.Ctx, cfg.engine("ablation-reftune"), cases,
		func(_ int, c refTuneCase) string { return "scheme=" + c.name },
		func(_ runner.Shard, c refTuneCase) (RefTuneRow, error) {
			var m *noise.BERModel
			var err error
			if c.model == "" {
				var tuned *noise.Spec
				if tuned, err = nunma.TuneReadRefs(nunma.BaselineMLC(), noise.MLCGray(), pe, hours); err == nil {
					m, err = noise.NewBERModel(tuned, noise.MLCGray())
				}
			} else {
				m, err = nunma.Model(c.model)
			}
			if err != nil {
				return RefTuneRow{}, err
			}
			ber := m.TotalBER(pe, hours)
			l, _ := sensing.DefaultRule().RequiredLevels(ber)
			return RefTuneRow{Scheme: c.name, BER: ber, Levels: l}, nil
		})
	return rows, err
}

// PrintRefTune renders the comparison.
func PrintRefTune(w io.Writer, pe int, hours float64, rows []RefTuneRow) {
	fmt.Fprintf(w, "Ablation — read-reference tuning vs LevelAdjust (P/E %d, %.0fh)\n", pe, hours)
	fmt.Fprintf(w, "  %-24s %12s %8s\n", "scheme", "raw BER", "levels")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %12.3e %8d\n", r.Scheme, r.BER, r.Levels)
	}
	fmt.Fprintln(w, "  (tuning tracks drift but cannot widen margins; only level reduction does)")
}
