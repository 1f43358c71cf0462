package exp

import (
	"fmt"
	"io"
	"math"

	"flexlevel/internal/runner"
	"flexlevel/internal/sensing"
	"flexlevel/internal/uber"
)

// HardECCRow compares one ECC configuration's tolerable raw BER at the
// UBER target.
type HardECCRow struct {
	Name        string
	Correctable int     // bits correctable per codeword
	MaxBER      float64 // largest raw BER meeting UBER <= 1e-15
}

// HardECCStudy quantifies the paper's §1/§2 motivation: with the same
// parity budget as the rate-8/9 LDPC code (4096 parity bits over a 4KB
// block), a hard-decision BCH code tops out well below the 1e-2 raw BER
// of worn 2Xnm MLC, while soft-decision LDPC with six extra sensing
// levels stretches far enough — at 7x the read latency. Each ECC
// configuration's tolerable-BER bisection is one engine shard.
func HardECCStudy(cfg SimConfig) ([]HardECCRow, error) {
	code := uber.PaperCode()
	rule := sensing.DefaultRule()

	// BCH over GF(2^15) covers 32K-bit codewords; spend the same parity
	// budget: t = parity / m.
	const m = 15
	t := code.ParityBits() / m

	cases := []HardECCRow{
		{Name: fmt.Sprintf("BCH (m=%d, t=%d, same parity)", m, t), Correctable: t},
		{Name: "LDPC hard decision (0 levels)", Correctable: rule.KBase},
		{Name: "LDPC soft, 6 extra levels", Correctable: rule.KBase + 6*rule.KStep},
	}
	rows, _, err := runner.Map(cfg.Ctx, cfg.engine("hardecc"), cases,
		func(_ int, c HardECCRow) string { return "ecc=" + c.Name },
		func(_ runner.Shard, c HardECCRow) (HardECCRow, error) {
			c.MaxBER = maxTolerableBER(code, c.Correctable)
			return c, nil
		})
	return rows, err
}

// maxTolerableBER finds the largest raw BER with UBER(k) <= target by
// geometric bisection.
func maxTolerableBER(code uber.Code, k int) float64 {
	lo, hi := 1e-8, 0.5
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(lo * hi)
		if uber.UBER(code, k, mid) <= uber.TargetUBER {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// PrintHardECC renders the study.
func PrintHardECC(w io.Writer, rows []HardECCRow) {
	fmt.Fprintln(w, "Hard-decision ECC vs soft LDPC at equal parity (UBER <= 1e-15, 4KB blocks)")
	fmt.Fprintf(w, "  %-34s %12s %12s\n", "ECC", "corrects", "max raw BER")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %12d %12.3e\n", r.Name, r.Correctable, r.MaxBER)
	}
	fmt.Fprintln(w, "  (worn 2Xnm MLC reaches 1e-2: hard-decision ECC is insufficient — paper §1)")
}
