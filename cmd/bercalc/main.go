// Command bercalc evaluates the device-physics models directly: raw BER
// (C2C + retention) for any scheme, the Eq. 1 UBER, and the number of
// extra LDPC sensing levels a read would need.
//
//	bercalc -scheme baseline -pe 6000 -hours 720
//	bercalc -scheme "NUNMA 3" -pe 6000 -hours 720
//	bercalc -sweep
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"flexlevel/internal/noise"
	"flexlevel/internal/nunma"
	"flexlevel/internal/sensing"
	"flexlevel/internal/uber"
)

func main() {
	scheme := flag.String("scheme", "baseline", `scheme: baseline, basic, "NUNMA 1", "NUNMA 2", "NUNMA 3"`)
	pe := flag.Int("pe", 6000, "P/E cycle count")
	hours := flag.Float64("hours", 720, "retention time in hours")
	sweep := flag.Bool("sweep", false, "print a P/E x time sweep for the scheme")
	density := flag.Bool("density", false, "emit the scheme's Vth density as CSV (Fig. 4-style)")
	flag.Parse()
	if err := checkPoint(*pe, *hours); err != nil {
		fmt.Fprintln(os.Stderr, "bercalc:", err)
		flag.Usage()
		os.Exit(2)
	}

	m, err := nunma.Model(*scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bercalc:", err)
		os.Exit(1)
	}
	rule := sensing.DefaultRule()

	if *density {
		if err := noise.WriteDensityCSV(os.Stdout, m.Spec, m.Enc, 0.0, 4.5, 451); err != nil {
			fmt.Fprintln(os.Stderr, "bercalc:", err)
			os.Exit(1)
		}
		return
	}

	if *sweep {
		fmt.Printf("scheme %s: total raw BER (C2C %.3e) and required sensing levels\n", *scheme, m.C2CBER())
		fmt.Printf("%-8s %10s %10s %10s %10s\n", "P/E", "1 day", "2 days", "1 week", "1 month")
		for _, p := range []int{2000, 3000, 4000, 5000, 6000} {
			fmt.Printf("%-8d", p)
			for _, h := range []float64{24, 48, 168, 720} {
				ber := m.TotalBER(p, h)
				l, _ := rule.RequiredLevels(ber)
				fmt.Printf(" %.2e/%d", ber, l)
			}
			fmt.Println()
		}
		return
	}

	c2c := m.C2CBER()
	ret := m.RetentionBER(*pe, *hours)
	total := c2c + ret
	levels, ok := rule.RequiredLevels(total)
	code := uber.PaperCode()
	k, _ := uber.RequiredK(code, total, uber.TargetUBER)
	fmt.Printf("scheme:            %s\n", *scheme)
	fmt.Printf("P/E cycles:        %d\n", *pe)
	fmt.Printf("retention:         %.0f hours\n", *hours)
	fmt.Printf("C2C BER:           %.4e\n", c2c)
	fmt.Printf("retention BER:     %.4e\n", ret)
	fmt.Printf("total raw BER:     %.4e\n", total)
	fmt.Printf("correctable bits:  %d (rate-8/9 over 4KB, UBER <= 1e-15)\n", k)
	fmt.Printf("extra levels:      %d", levels)
	if !ok {
		fmt.Printf(" (insufficient: page needs refresh)")
	}
	fmt.Println()
	fmt.Printf("read latency:      %v (vs %v hard-decision)\n",
		sensing.DefaultTiming().ReadLatency(levels), sensing.DefaultTiming().ReadLatency(0))
}

// checkPoint rejects a device point the models cannot evaluate: a
// negative P/E count, or a storage time that is negative or not finite.
func checkPoint(pe int, hours float64) error {
	if pe < 0 {
		return fmt.Errorf("-pe %d: P/E cycles must be >= 0", pe)
	}
	if math.IsNaN(hours) || math.IsInf(hours, 0) || hours < 0 {
		return fmt.Errorf("-hours %v: retention time must be finite and >= 0", hours)
	}
	return nil
}
