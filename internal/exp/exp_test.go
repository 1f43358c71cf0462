package exp

import (
	"strings"
	"testing"

	"flexlevel/internal/core"
	"flexlevel/internal/sensing"
)

func TestFig5ShapeMatchesPaper(t *testing.T) {
	rows, err := Fig5(SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want baseline + 3 NUNMA", len(rows))
	}
	base := rows[0].C2CBER
	// Every reduced configuration beats the baseline (paper: up to 6x).
	for _, r := range rows[1:] {
		if r.C2CBER >= base {
			t.Errorf("%s C2C BER %g not below baseline %g", r.Scheme, r.C2CBER, base)
		}
	}
	// Ordering NUNMA 1 < NUNMA 2 < NUNMA 3 (paper: NUNMA 3 is 50%/20%
	// above NUNMA 1/2).
	if !(rows[1].C2CBER < rows[2].C2CBER && rows[2].C2CBER < rows[3].C2CBER) {
		t.Errorf("NUNMA C2C ordering violated: %v", rows)
	}
	var sb strings.Builder
	PrintFig5(&sb, rows)
	if !strings.Contains(sb.String(), "NUNMA 3") {
		t.Error("renderer missing rows")
	}
}

func TestTable4ShapeMatchesPaper(t *testing.T) {
	cells, err := Table4(SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(PEPoints)*4 {
		t.Fatalf("%d cells, want %d", len(cells), len(PEPoints)*4)
	}
	// Within every row, BER grows with storage time.
	for _, c := range cells {
		for i := 1; i < len(c.BER); i++ {
			if c.BER[i] < c.BER[i-1] {
				t.Errorf("%s @ P/E %d: BER not monotone in time: %v", c.Scheme, c.PE, c.BER)
			}
		}
	}
	// Reduction factors ordered: NUNMA 3 strongest (paper 2x/5x/9x).
	red := Table4Reductions(cells)
	if !(red["NUNMA 1"] > 1) {
		t.Errorf("NUNMA 1 reduction %.2f, want > 1", red["NUNMA 1"])
	}
	if !(red["NUNMA 3"] > red["NUNMA 2"] && red["NUNMA 2"] > red["NUNMA 1"]) {
		t.Errorf("reduction ordering violated: %v", red)
	}
	var sb strings.Builder
	PrintTable4(&sb, cells)
	if !strings.Contains(sb.String(), "mean reduction") {
		t.Error("renderer missing summary")
	}
}

func TestTable5ShapeMatchesPaper(t *testing.T) {
	rule := sensing.DefaultRule()
	rows, err := Table5(rule)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want P/E 3000..6000", len(rows))
	}
	for _, r := range rows {
		// 0-day column: C2C only, below trigger -> 0 levels.
		if r.Levels[0] != 0 {
			t.Errorf("P/E %d at 0 days needs %d levels, want 0", r.PE, r.Levels[0])
		}
		// Monotone in storage time.
		for i := 1; i < len(r.Levels); i++ {
			if r.Levels[i] < r.Levels[i-1] {
				t.Errorf("P/E %d: levels not monotone: %v", r.PE, r.Levels)
			}
		}
	}
	// Monotone in P/E at fixed time.
	for c := 0; c < 5; c++ {
		for i := 1; i < len(rows); i++ {
			if rows[i].Levels[c] < rows[i-1].Levels[c] {
				t.Errorf("column %d: levels not monotone in P/E", c)
			}
		}
	}
	// The corner (P/E 6000, 1 month) needs many levels (paper: 6).
	if rows[3].Levels[4] < 4 {
		t.Errorf("P/E 6000, 1 month needs %d levels, want >= 4", rows[3].Levels[4])
	}
	var sb strings.Builder
	PrintTable5(&sb, rows)
	if !strings.Contains(sb.String(), "P/E") {
		t.Error("renderer broken")
	}
}

// smallSim keeps system experiments fast in unit tests.
func smallSim() SimConfig {
	return SimConfig{Requests: 4000, Seed: 2, PE: 6000}
}

func TestFig6aSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("system simulation")
	}
	data, err := Fig6a(smallSim())
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Workloads) != 7 || len(data.Cells) != 7 {
		t.Fatalf("grid %dx%d, want 7 workloads", len(data.Workloads), len(data.Cells))
	}
	// FlexLevel reduces response vs baseline on average.
	if red := data.MeanReduction(core.FlexLevel, core.Baseline); red <= 0.2 {
		t.Errorf("mean reduction vs baseline = %.2f, want substantial", red)
	}
	norms := data.Normalized(core.FlexLevel, core.LDPCInSSD)
	if len(norms) != 7 {
		t.Fatal("normalized vector wrong length")
	}
	var sb strings.Builder
	PrintFig6a(&sb, data)
	if !strings.Contains(sb.String(), "mean reduction") {
		t.Error("renderer missing summary")
	}
	// Fig. 7 derives from the same grid.
	rows := Fig7(data)
	if len(rows) != 7 {
		t.Fatalf("Fig7 rows = %d, want 7", len(rows))
	}
	for _, r := range rows {
		if r.Lifetime <= 0 || r.Lifetime > 1.001 {
			t.Errorf("%s lifetime %.3f out of (0,1]", r.Workload, r.Lifetime)
		}
		if r.WriteIncrease < 0 {
			t.Errorf("%s write increase %.3f negative", r.Workload, r.WriteIncrease)
		}
	}
	var sb2 strings.Builder
	PrintFig7(&sb2, 6000, rows)
	if !strings.Contains(sb2.String(), "average") {
		t.Error("Fig7 renderer missing summary")
	}
}

func TestEncodingAblation(t *testing.T) {
	rows, err := EncodingAblation(SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want reducecode + gray3 + slc", len(rows))
	}
	// ReduceCode stores 1.5 bits/cell vs 1 for naive Gray and SLC mode.
	if rows[0].BitsPerCell <= rows[1].BitsPerCell {
		t.Errorf("ReduceCode %.2f bits/cell not above naive %.2f",
			rows[0].BitsPerCell, rows[1].BitsPerCell)
	}
	if rows[0].CapacityLoss >= rows[1].CapacityLoss {
		t.Error("ReduceCode should lose less capacity")
	}
	// SLC mode costs twice ReduceCode's capacity and, like ReduceCode on
	// NUNMA 3, stays below the 4e-3 soft-sensing trigger — the ablation's
	// point: ReduceCode buys the same no-soft-sensing outcome at half
	// the cost.
	slc := rows[2]
	if slc.CapacityLoss != 0.5 {
		t.Errorf("SLC capacity loss %.2f, want 0.5", slc.CapacityLoss)
	}
	if slc.WorstBER >= 4e-3 || rows[0].WorstBER >= 4e-3 {
		t.Errorf("both SLC (%.3e) and ReduceCode (%.3e) must stay below the trigger",
			slc.WorstBER, rows[0].WorstBER)
	}
	var sb strings.Builder
	PrintEncodingAblation(&sb, rows)
	if !strings.Contains(sb.String(), "reducecode") || !strings.Contains(sb.String(), "slc") {
		t.Error("renderer broken")
	}
}

func TestMarginAblation(t *testing.T) {
	rows, err := MarginAblation(SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	// NUNMA 3 cuts retention BER vs uniform margins.
	if rows[1].RetentionBER >= rows[0].RetentionBER {
		t.Errorf("NUNMA retention %.3e not below uniform %.3e",
			rows[1].RetentionBER, rows[0].RetentionBER)
	}
	var sb strings.Builder
	PrintMarginAblation(&sb, rows)
	if !strings.Contains(sb.String(), "NUNMA 3") {
		t.Error("renderer broken")
	}
}

func TestPoolSweepMonotoneLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("system simulation")
	}
	rows, err := PoolSweep(smallSim(), []float64{0.001, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("row count")
	}
	if rows[1].CapacityLoss < rows[0].CapacityLoss {
		t.Errorf("bigger pool lost less capacity: %v", rows)
	}
	var sb strings.Builder
	PrintPoolSweep(&sb, rows)
	if !strings.Contains(sb.String(), "pool") {
		t.Error("renderer broken")
	}
}

func TestHLOAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("system simulation")
	}
	rows, err := HLOAblation(smallSim())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("row count")
	}
	// Frequency-only migrates at least as much (its threshold ignores
	// the sensing dimension).
	if rows[1].Migrations < rows[0].Migrations {
		t.Errorf("frequency-only migrated %d < paper rule %d",
			rows[1].Migrations, rows[0].Migrations)
	}
	var sb strings.Builder
	PrintHLOAblation(&sb, rows)
	if !strings.Contains(sb.String(), "rule") {
		t.Error("renderer broken")
	}
}
