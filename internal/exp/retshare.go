package exp

import (
	"fmt"
	"io"

	"flexlevel/internal/nunma"
	"flexlevel/internal/runner"
)

// RetentionShare reports each Vth level's share of the retention errors
// of the basic (uniform-margin) LevelAdjust cell — the observation that
// motivates NUNMA (paper §4.2: "78% and 15% bit errors occur at Vth
// level 2 and 1 on average").
type RetentionShare struct {
	PE     int
	Hours  float64
	Shares []float64 // one per level
}

// RetentionShares computes the level shares over the paper's evaluation
// grid and their average, one engine shard per (P/E, storage time) cell.
func RetentionShares(cfg SimConfig) ([]RetentionShare, []float64, error) {
	type gridCell struct {
		PE    int
		Hours float64
	}
	var cells []gridCell
	for _, pe := range PEPoints {
		for _, t := range RetentionTimes {
			cells = append(cells, gridCell{PE: pe, Hours: t.Hours})
		}
	}
	// One stateless model serves every grid cell; constructing it per
	// shard only re-validated the same spec/encoding 20 times.
	m, err := nunma.Model("basic")
	if err != nil {
		return nil, nil, err
	}
	rows, _, err := runner.Map(cfg.Ctx, cfg.engine("retshare"), cells,
		func(_ int, c gridCell) string { return fmt.Sprintf("pe=%d/hours=%g", c.PE, c.Hours) },
		func(_ runner.Shard, c gridCell) (RetentionShare, error) {
			return RetentionShare{PE: c.PE, Hours: c.Hours, Shares: m.RetentionLevelShare(c.PE, c.Hours)}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	avg := make([]float64, 3)
	for _, r := range rows {
		for i, s := range r.Shares {
			avg[i] += s
		}
	}
	for i := range avg {
		avg[i] /= float64(len(rows))
	}
	return rows, avg, nil
}

// PrintRetentionShares renders the study with the paper's claim for
// comparison.
func PrintRetentionShares(w io.Writer, rows []RetentionShare, avg []float64) {
	fmt.Fprintln(w, "§4.2 — retention error share by Vth level (basic LevelAdjust)")
	fmt.Fprintf(w, "  average over the grid: L0 %.0f%%, L1 %.0f%%, L2 %.0f%%  (paper: L1 15%%, L2 78%%)\n",
		100*avg[0], 100*avg[1], 100*avg[2])
	for _, r := range rows {
		if r.Hours != 720 {
			continue // print the 1-month column; the grid average is above
		}
		fmt.Fprintf(w, "  P/E %-6d 1 month: L1 %5.1f%%  L2 %5.1f%%\n",
			r.PE, 100*r.Shares[1], 100*r.Shares[2])
	}
}
