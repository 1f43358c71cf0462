// berstudy: device-level reliability study.
//
// It cross-validates the closed-form BER models against the cell-
// accurate Monte-Carlo NAND array simulator: program a wordline, apply
// interference and retention aging, read it back, and compare the
// measured error rates with the analytic predictions that drive the
// paper's Tables 4-5. It exits non-zero if the array's reduced rows
// misread more often than its normal rows (the §4 LevelAdjust claim).
//
//	go run ./examples/berstudy
package main

import (
	"fmt"
	"log"
	"math/rand"

	"flexlevel/internal/nand"
	"flexlevel/internal/nunma"
)

const (
	rows  = 16
	cols  = 512
	pe    = 6000
	hours = 720.0
)

func main() {
	cfg, err := nunma.ByName("NUNMA 3")
	if err != nil {
		log.Fatal(err)
	}

	// Analytic predictions.
	baseModel, err := nunma.Model("baseline")
	if err != nil {
		log.Fatal(err)
	}
	redModel, err := nunma.Model(cfg.Name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analytic @ P/E %d, %.0fh:\n", pe, hours)
	fmt.Printf("  baseline MLC: C2C %.3e, retention %.3e\n", baseModel.C2CBER(), baseModel.RetentionBER(pe, hours))
	fmt.Printf("  NUNMA 3:      C2C %.3e, retention %.3e\n\n", redModel.C2CBER(), redModel.RetentionBER(pe, hours))

	// Monte Carlo through the closed-form sampler.
	rng := rand.New(rand.NewSource(7))
	mc := baseModel.MonteCarloBER(300000, pe, hours, rng)
	fmt.Printf("monte carlo (sampler, %d cells): baseline total BER %.3e (%d level errors, %d multi-level, %d pass failures)\n\n",
		mc.Cells, mc.BER, mc.LevelErrors, mc.MultiLevel, mc.PassFail)

	// Cell-accurate array: program, age, read back.
	fmt.Printf("cell-accurate array (%dx%d cells):\n", rows, cols)
	normalErrs, normalCells := runArray(cfg, false)
	reducedErrs, reducedCells := runArray(cfg, true)
	fmt.Printf("  normal rows:  %d/%d misread after %0.fh at P/E %d\n", normalErrs, normalCells, hours, pe)
	fmt.Printf("  reduced rows: %d/%d misread (LevelAdjust robustness)\n", reducedErrs, reducedCells)
	if reducedErrs*normalCells > normalErrs*reducedCells {
		log.Fatalf("reduced state misreads more often than normal (%d/%d vs %d/%d): model calibration drifted",
			reducedErrs, reducedCells, normalErrs, normalCells)
	}
	fmt.Println("  -> reduced state at least as robust, as the paper claims")
}

// runArray programs every wordline, ages the array, reads back, and
// counts symbol errors.
func runArray(cfg nunma.Config, reduced bool) (errors, symbols int) {
	a, err := nand.NewArray(rows, cols, nunma.BaselineMLC(), cfg.Spec(), 42)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	a.SetPECycles(pe)
	stored := make([][]uint8, rows)
	for r := 0; r < rows; r++ {
		if reduced {
			if err := a.SetRowState(r, nand.Reduced); err != nil {
				log.Fatal(err)
			}
			vals := make([]uint8, cols/2)
			for i := range vals {
				vals[i] = uint8(rng.Intn(8))
			}
			stored[r] = vals
			if err := a.ProgramRowReduced(r, vals); err != nil {
				log.Fatal(err)
			}
		} else {
			levels := make([]uint8, cols)
			for i := range levels {
				levels[i] = uint8(rng.Intn(4))
			}
			stored[r] = levels
			if err := a.ProgramRowNormal(r, levels); err != nil {
				log.Fatal(err)
			}
		}
	}
	a.Age(hours)
	for r := 0; r < rows; r++ {
		var got []uint8
		var err error
		if reduced {
			got, err = a.ReadRowReduced(r)
		} else {
			got, err = a.ReadRowLevels(r)
		}
		if err != nil {
			log.Fatal(err)
		}
		for i := range stored[r] {
			symbols++
			if got[i] != stored[r][i] {
				errors++
			}
		}
	}
	return errors, symbols
}
