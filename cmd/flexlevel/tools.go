// ber, tracegen and fer: the tools that evaluate the models and inputs
// directly, outside the experiment registry. Each keeps its own flag
// set and writes only its result to w.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"flexlevel/internal/core"
	"flexlevel/internal/ldpc"
	"flexlevel/internal/noise"
	"flexlevel/internal/nunma"
	"flexlevel/internal/sensing"
	"flexlevel/internal/stats"
	"flexlevel/internal/trace"
	"flexlevel/internal/uber"
)

// usageError marks a refused input that exits 2 with the usage text,
// like a flag parse error.
type usageError struct{ error }

// berCmd evaluates the device-physics models: raw BER (C2C + retention)
// for any scheme, the Eq. 1 correctable bits, and the number of extra
// LDPC sensing levels a read would need.
func berCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("ber", flag.ExitOnError)
	scheme := fs.String("scheme", "baseline", `scheme: baseline, basic, "NUNMA 1", "NUNMA 2", "NUNMA 3"`)
	pe := fs.Int("pe", 6000, "P/E cycle count")
	hours := fs.Float64("hours", 720, "retention time in hours")
	sweep := fs.Bool("sweep", false, "print a P/E x time sweep for the scheme")
	density := fs.Bool("density", false, "emit the scheme's Vth density as CSV (Fig. 4-style)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkPoint(*pe, *hours); err != nil {
		return usageError{err}
	}
	m, err := nunma.Model(*scheme)
	if err != nil {
		return err
	}
	if *density {
		return noise.WriteDensityCSV(w, m.Spec, m.Enc, 0.0, 4.5, 451)
	}
	rule := sensing.DefaultRule()
	if *sweep {
		fmt.Fprintf(w, "scheme %s: total raw BER (C2C %.3e) and required sensing levels\n", *scheme, m.C2CBER())
		fmt.Fprintf(w, "%-8s %10s %10s %10s %10s\n", "P/E", "1 day", "2 days", "1 week", "1 month")
		for _, p := range []int{2000, 3000, 4000, 5000, 6000} {
			fmt.Fprintf(w, "%-8d", p)
			for _, h := range []float64{24, 48, 168, 720} {
				ber := m.TotalBER(p, h)
				l, _ := rule.RequiredLevels(ber)
				fmt.Fprintf(w, " %.2e/%d", ber, l)
			}
			fmt.Fprintln(w)
		}
		return nil
	}

	c2c := m.C2CBER()
	ret := m.RetentionBER(*pe, *hours)
	total := c2c + ret
	levels, ok := rule.RequiredLevels(total)
	k, _ := uber.RequiredK(uber.PaperCode(), total, uber.TargetUBER)
	fmt.Fprintf(w, "scheme:            %s\n", *scheme)
	fmt.Fprintf(w, "P/E cycles:        %d\n", *pe)
	fmt.Fprintf(w, "retention:         %.0f hours\n", *hours)
	fmt.Fprintf(w, "C2C BER:           %.4e\n", c2c)
	fmt.Fprintf(w, "retention BER:     %.4e\n", ret)
	fmt.Fprintf(w, "total raw BER:     %.4e\n", total)
	fmt.Fprintf(w, "correctable bits:  %d (rate-8/9 over 4KB, UBER <= 1e-15)\n", k)
	fmt.Fprintf(w, "extra levels:      %d", levels)
	if !ok {
		fmt.Fprintf(w, " (insufficient: page needs refresh)")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "read latency:      %v (vs %v hard-decision)\n",
		sensing.DefaultTiming().ReadLatency(levels), sensing.DefaultTiming().ReadLatency(0))
	return nil
}

// checkPoint rejects a device point the models cannot evaluate: a
// negative P/E count, or a storage time that is negative or not finite.
func checkPoint(pe int, hours float64) error {
	if pe < 0 {
		return fmt.Errorf("-pe %d: P/E cycles must be >= 0", pe)
	}
	return checkRate("hours", hours, false)
}

// tracegenCmd emits a synthetic workload trace of the evaluation as CSV
// (arrival_us,op,lpn,pages), or with -tenants N a scenario-spec CSV of
// N tenants (the canonical trio first, then derived variants): the
// format `flexlevel scenario -tenants` and `flexlevel serve -tenants`
// read.
func tracegenCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ExitOnError)
	name := fs.String("w", "fin-2", "workload name")
	n := fs.Int("n", 100000, "number of requests")
	ws := fs.Uint64("pages", core.DefaultOptions(core.Baseline, 0).SSD.FTL.LogicalPages,
		"logical page count the working sets scale against (the simulated device's)")
	seed := fs.Int64("seed", 1, "generator seed")
	list := fs.Bool("list", false, "list available workloads and exit")
	summary := fs.Bool("summary", false, "print workload statistics instead of the trace")
	tenants := fs.Int("tenants", 0, "emit a scenario-spec CSV of this many tenants instead of a trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *tenants < 0:
		return fmt.Errorf("-tenants %d: tenant count must be >= 0", *tenants)
	case *ws == 0:
		return fmt.Errorf("-pages 0: working sets need at least one page")
	case *tenants > 0:
		specs := trace.SampleTenants(*tenants, *ws)
		for _, t := range specs {
			if err := t.Validate(); err != nil {
				return err
			}
		}
		return trace.WriteScenarioSpec(w, specs)
	case *list:
		for _, wl := range trace.Workloads(*n, *ws, *seed) {
			fmt.Fprintf(w, "%-8s %-18s reads=%.0f%% zipf=%.2f workingset=%d pages\n",
				wl.Name, wl.Class, wl.ReadRatio*100, wl.ZipfS, wl.WorkingSet)
		}
		return nil
	}
	wl, err := trace.ByName(*name, *n, *ws, *seed)
	if err != nil {
		return err
	}
	reqs, err := wl.Generate()
	if err != nil {
		return err
	}
	if *summary {
		s := trace.Summarize(reqs)
		fmt.Fprintf(w, "workload:   %s (%s)\n", wl.Name, wl.Class)
		fmt.Fprintf(w, "requests:   %d (%d reads, %d writes)\n", s.Requests, s.Reads, s.Writes)
		fmt.Fprintf(w, "pages:      %d read, %d written\n", s.ReadPages, s.WritePages)
		fmt.Fprintf(w, "span:       %v\n", s.Span)
		return nil
	}
	return trace.WriteCSV(w, reqs)
}

// ferCmd sweeps the LDPC decoders over a binary symmetric channel: the
// IRA or quasi-cyclic construction under both min-sum schedules and the
// hard bit-flipping decoder, reporting frame error rates with Wilson
// 95% confidence intervals.
func ferCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("fer", flag.ExitOnError)
	frames := fs.Int("frames", 50, "codewords per point")
	bers := fs.String("bers", "0.002,0.004,0.006,0.010", "comma-separated channel BERs")
	construction := fs.String("construction", "ira", "ldpc construction: ira or qc")
	seed := fs.Int64("seed", 1, "RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *frames < 1 {
		return fmt.Errorf("-frames %d: need at least 1 frame per point", *frames)
	}
	var points []float64
	for _, s := range strings.Split(*bers, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || !(v > 0 && v < 0.5) {
			return fmt.Errorf("bad BER %q: want a number in (0, 0.5)", s)
		}
		points = append(points, v)
	}

	var code *ldpc.Code
	var err error
	switch *construction {
	case "ira":
		code, err = ldpc.New(ldpc.TestParams())
	case "qc":
		code, err = ldpc.NewQC(ldpc.QCParams{J: 4, L: 36, Z: 37, Seed: 5})
	default:
		return fmt.Errorf("unknown construction %q", *construction)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "LDPC (%s): n=%d k=%d rate=%.3f, %d frames per point\n",
		*construction, code.N, code.K, code.Rate(), *frames)
	fmt.Fprintf(w, "%-8s %26s %26s\n", "BER", "flooding FER [95% CI]", "layered FER [95% CI]")
	for _, p := range points {
		flood, err := ldpc.SimulateFER(code, ldpc.NewDecoder(code), p, *frames, rand.New(rand.NewSource(*seed)))
		if err != nil {
			return err
		}
		layer, err := ldpc.SimulateFER(code, ldpc.NewLayeredDecoder(code), p, *frames, rand.New(rand.NewSource(*seed)))
		if err != nil {
			return err
		}
		fl, fh := ci95(flood)
		ll, lh := ci95(layer)
		fmt.Fprintf(w, "%-8.4f %8.3f [%5.3f, %5.3f] %11.3f [%5.3f, %5.3f]   iters %.1f vs %.1f\n",
			p, flood.FER(), fl, fh, layer.FER(), ll, lh, flood.AvgIters, layer.AvgIters)
	}

	// The hard decoder's points all draw from one rng, so the sweep is
	// one deterministic stream.
	fmt.Fprintf(w, "\nLDPC hard bit-flip (%s):\n", *construction)
	fmt.Fprintf(w, "%-8s %26s\n", "BER", "FER [95% CI]")
	rng := rand.New(rand.NewSource(*seed))
	hard := ldpc.NewHardDecoder(code)
	for _, p := range points {
		res, err := ldpc.SimulateBSC(code.K, code.Encode, hard.Decode, p, *frames, rng)
		if err != nil {
			return err
		}
		lo, hi := ci95(res)
		fmt.Fprintf(w, "%-8.4f %8.3f [%5.3f, %5.3f]\n", p, res.FER(), lo, hi)
	}
	return nil
}

// ci95 is the Wilson 95% interval of a sweep point's frame error rate.
func ci95(r ldpc.FERResult) (lo, hi float64) {
	return stats.ProportionCI95(int64(r.FrameFails), int64(r.Frames))
}
