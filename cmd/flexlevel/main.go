// Command flexlevel runs the FlexLevel paper experiments. Each
// subcommand regenerates one table or figure of the DAC'15 evaluation:
//
//	flexlevel fig5               C2C BER of reduced state cells
//	flexlevel table4             retention BER grid
//	flexlevel table5             required extra LDPC sensing levels
//	flexlevel fig6a [-n N]       normalized response time, 7 workloads x 4 systems
//	flexlevel fig6b [-n N]       response-time reduction vs P/E sweep
//	flexlevel fig7  [-n N]       endurance: writes, erases, lifetime
//	flexlevel ablations [-n N]   design-choice ablation studies
//	flexlevel ecc                hard-decision BCH vs soft LDPC capability
//	flexlevel retshare           retention-error share by Vth level (§4.2)
//	flexlevel replay -in f       replay a CSV or MSR trace file
//	flexlevel reliability [-faults m]  fault-injection sweep: bad blocks, degradation
//	flexlevel crash [-crashes k] power-loss sweep: journal replay, recovery audit
//	flexlevel throughput [-n N]  IOPS and read-latency percentiles vs queue depth 1..32
//	flexlevel adaptive [-n N]    adaptive threshold calibration vs static references
//	flexlevel scenario [-n N] [-tenants f]  workload-shape x fault x queue-depth x system matrix
//	flexlevel lifetime [-scale f]  full-device end-of-life: scrub/refresh policies, TBW to read-only
//	flexlevel all   [-n N]       everything above in order
//
// Beyond the one-shot experiments, serve runs the simulated SSD as a
// long-running multi-tenant block service and load drives it:
//
//	flexlevel serve [-addr :8077] [-tenants f] [-qd 8] [-slo d] ...
//	flexlevel load  [-url u] [-n 100000] [-gate] [-json] ...
//
// serve drains cleanly on SIGTERM (stop admitting, finish in-flight,
// flush the final metrics snapshot); see cmd/flexlevel/serve.go.
//
// SIGINT cancels a running sweep cleanly: shards not yet started stay
// unrun and the partial engine summary is still written (with -csv).
//
// Profiling: -cpuprofile, -memprofile and -trace write a CPU profile, a
// heap profile and a runtime execution trace for any subcommand
// (inspect with go tool pprof / go tool trace).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"

	"flexlevel/internal/core"
	"flexlevel/internal/exp"
	"flexlevel/internal/runner"
	"flexlevel/internal/sensing"
	"flexlevel/internal/trace"
)

// experiments lists the experiment subcommands in usage order. all runs
// every one but replay, which needs an input file.
var experiments = []string{"fig5", "table4", "table5", "fig6a", "fig6b", "fig7", "ablations", "ecc", "retshare",
	"replay", "reliability", "crash", "throughput", "adaptive", "scenario", "lifetime"}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: flexlevel <"+strings.Join(experiments, "|")+"|all> [-n requests] [-seed s] [-pe cycles] [-parallel w] [-faults m] [-crashes k] [-scale f] [-in file -format csv|msr] [-tenants file] [-cpuprofile f] [-memprofile f] [-trace f]")
	fmt.Fprintln(os.Stderr, "       flexlevel serve [-addr a] [-shards n] [-tenants f] [-qd d] [-rate r] [-slo d] [-deadline d] [-faults m] [-crash-at n] [-crash-shard k] [-auto-restart] [-snapshot f] [-pprof]")
	fmt.Fprintln(os.Stderr, "       flexlevel load  [-url u] [-n requests] [-tenants f] [-workers w] [-readratio r] [-gate] [-json]")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	// serve and load have their own flag surfaces; dispatch before the
	// shared experiment flag set.
	switch cmd {
	case "serve", "load":
		run := serveCmd
		if cmd == "load" {
			run = loadCmd
		}
		if err := run(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "flexlevel:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	n := fs.Int("n", 60000, "requests per workload for system experiments")
	seed := fs.Int64("seed", 1, "master seed: workload generation and per-shard derived seeds")
	pe := fs.Int("pe", 6000, "P/E cycle point for fig6a/fig7/ablations")
	parallel := fs.Int("parallel", 0, "experiment engine workers (0 = all cores); results are byte-identical for any value")
	faults := fs.Float64("faults", 1, "fault-rate multiplier for the reliability and lifetime sweeps (0 disables injection)")
	scale := fs.Float64("scale", 1, "device-scale multiplier for the lifetime sweep (1 = the full 1M+ physical-page device)")
	crashes := fs.Int("crashes", 24, "crash points for the crash subcommand")
	inFile := fs.String("in", "", "trace file for the replay subcommand")
	tenantsFile := fs.String("tenants", "", "tenant spec file for the scenario subcommand (default: built-in three-tenant mix)")
	format := fs.String("format", "csv", "trace file format: csv (tracegen) or msr (MSR-Cambridge)")
	csvDir := fs.String("csv", "", "also write plotting-friendly CSV artifacts into this directory")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	traceOut := fs.String("trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(os.Args[2:]); err != nil {
		usage()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := exp.SimConfig{Requests: *n, Seed: *seed, PE: *pe, Parallel: *parallel, Ctx: ctx}
	// Every engine sweep emits a machine-readable JSON summary (wall
	// time, speedup vs serial, ops/sec, per-shard timing) next to the
	// CSV artifacts when -csv is given.
	cfg.OnSummary = func(s *runner.Summary) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "flexlevel: summary:", err)
			return
		}
		f, err := os.Create(*csvDir + "/" + s.Name + "_summary.json")
		if err != nil {
			fmt.Fprintln(os.Stderr, "flexlevel: summary:", err)
			return
		}
		defer f.Close()
		if err := s.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "flexlevel: summary:", err)
		}
	}

	writeCSV := func(name string, emit func(w *os.File) error) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(*csvDir + "/" + name)
		if err != nil {
			return err
		}
		defer f.Close()
		return emit(f)
	}

	run := func(name string) error {
		switch name {
		case "fig5":
			rows, err := exp.Fig5(cfg)
			if err != nil {
				return err
			}
			exp.PrintFig5(os.Stdout, rows)
			if err := writeCSV("fig5.csv", func(f *os.File) error { return exp.WriteFig5CSV(f, rows) }); err != nil {
				return err
			}
		case "table4":
			cells, err := exp.Table4(cfg)
			if err != nil {
				return err
			}
			exp.PrintTable4(os.Stdout, cells)
			if err := writeCSV("table4.csv", func(f *os.File) error { return exp.WriteTable4CSV(f, cells) }); err != nil {
				return err
			}
		case "table5":
			rows, err := exp.Table5(sensing.DefaultRule())
			if err != nil {
				return err
			}
			exp.PrintTable5(os.Stdout, rows)
			if err := writeCSV("table5.csv", func(f *os.File) error { return exp.WriteTable5CSV(f, rows) }); err != nil {
				return err
			}
		case "fig6a":
			data, err := exp.Fig6a(cfg)
			if err != nil {
				return err
			}
			exp.PrintFig6a(os.Stdout, data)
			if err := writeCSV("fig6a.csv", func(f *os.File) error { return exp.WriteFig6aCSV(f, data) }); err != nil {
				return err
			}
		case "fig6b":
			pts, err := exp.Fig6b(cfg, []int{4000, 5000, 6000})
			if err != nil {
				return err
			}
			exp.PrintFig6b(os.Stdout, pts)
		case "fig7":
			data, err := exp.Fig6a(cfg)
			if err != nil {
				return err
			}
			rows := exp.Fig7(data)
			exp.PrintFig7(os.Stdout, rows)
			if err := writeCSV("fig7.csv", func(f *os.File) error { return exp.WriteFig7CSV(f, rows) }); err != nil {
				return err
			}
		case "ablations":
			enc, err := exp.EncodingAblation(cfg)
			if err != nil {
				return err
			}
			exp.PrintEncodingAblation(os.Stdout, enc)
			fmt.Println()
			margins, err := exp.MarginAblation(cfg)
			if err != nil {
				return err
			}
			exp.PrintMarginAblation(os.Stdout, margins)
			fmt.Println()
			hlo, err := exp.HLOAblation(cfg)
			if err != nil {
				return err
			}
			exp.PrintHLOAblation(os.Stdout, hlo)
			fmt.Println()
			pool, err := exp.PoolSweep(cfg, []float64{0.001, 0.005, 0.02, 0.25})
			if err != nil {
				return err
			}
			exp.PrintPoolSweep(os.Stdout, pool)
			fmt.Println()
			rt, err := exp.RefTuneAblation(cfg, *pe, 720)
			if err != nil {
				return err
			}
			exp.PrintRefTune(os.Stdout, *pe, 720, rt)
			fmt.Println()
			scrub, err := exp.ScrubAblation(cfg)
			if err != nil {
				return err
			}
			exp.PrintScrubAblation(os.Stdout, scrub)
			fmt.Println()
			ch, err := exp.ChannelAblation(cfg, []int{1, 2, 4, 8})
			if err != nil {
				return err
			}
			exp.PrintChannelAblation(os.Stdout, ch)
		case "ecc":
			rows, err := exp.HardECCStudy(cfg)
			if err != nil {
				return err
			}
			exp.PrintHardECC(os.Stdout, rows)
		case "retshare":
			rows, avg, err := exp.RetentionShares(cfg)
			if err != nil {
				return err
			}
			exp.PrintRetentionShares(os.Stdout, rows, avg)
		case "replay":
			return replay(os.Stdout, *inFile, *format, *pe)
		case "reliability":
			scales := []float64{0}
			if m := *faults; m > 0 {
				scales = append(scales, 0.25*m, m, 4*m)
			}
			rows, err := exp.Reliability(cfg, scales)
			if err != nil {
				return err
			}
			exp.PrintReliability(os.Stdout, rows)
			if err := writeCSV("reliability.csv", func(f *os.File) error { return exp.WriteReliabilityCSV(f, rows) }); err != nil {
				return err
			}
		case "crash":
			data, err := exp.CrashRecovery(cfg, *crashes)
			if err != nil {
				return err
			}
			exp.PrintCrash(os.Stdout, data)
			if err := writeCSV("crash.csv", func(f *os.File) error { return exp.WriteCrashCSV(f, data.Rows) }); err != nil {
				return err
			}
			if err := writeCSV("crash_summary.json", func(f *os.File) error { return data.Summary.WriteJSON(f) }); err != nil {
				return err
			}
		case "throughput":
			rows, err := exp.Throughput(cfg)
			if err != nil {
				return err
			}
			exp.PrintThroughput(os.Stdout, rows)
			if err := writeCSV("throughput.csv", func(f *os.File) error { return exp.WriteThroughputCSV(f, rows) }); err != nil {
				return err
			}
		case "scenario":
			tenants, err := loadTenants(*tenantsFile)
			if err != nil {
				return err
			}
			rows, err := exp.Scenario(cfg, tenants)
			if err != nil {
				return err
			}
			exp.PrintScenario(os.Stdout, rows)
			if err := writeCSV("scenario.csv", func(f *os.File) error { return exp.WriteScenarioCSV(f, rows) }); err != nil {
				return err
			}
		case "lifetime":
			p := exp.DefaultLifetime()
			if *scale != 1 {
				p = p.Scaled(*scale)
			}
			p.FaultScale = *faults
			rows, err := exp.Lifetime(cfg, p)
			if err != nil {
				return err
			}
			exp.PrintLifetime(os.Stdout, rows)
			if err := writeCSV("lifetime.csv", func(f *os.File) error { return exp.WriteLifetimeCSV(f, rows) }); err != nil {
				return err
			}
		case "adaptive":
			rows, err := exp.Adaptive(cfg)
			if err != nil {
				return err
			}
			exp.PrintAdaptive(os.Stdout, rows)
			if err := writeCSV("adaptive.csv", func(f *os.File) error { return exp.WriteAdaptiveCSV(f, rows) }); err != nil {
				return err
			}
		default:
			usage()
		}
		return nil
	}

	names := []string{cmd}
	switch {
	case cmd == "all":
		names = slices.DeleteFunc(slices.Clone(experiments), func(n string) bool { return n == "replay" })
	case !slices.Contains(experiments, cmd):
		usage() // before any profile file is created
	}
	// Profiling brackets the experiment work itself; usage errors above
	// exit before any profile file is created. os.Exit skips defers, so
	// every exit path below stops the profiler explicitly.
	prof, err := startProfiles(*cpuProfile, *memProfile, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexlevel:", err)
		os.Exit(1)
	}
	for i, name := range names {
		if i > 0 {
			fmt.Println()
		}
		if err := run(name); err != nil {
			fmt.Fprintln(os.Stderr, "flexlevel:", err)
			prof.stop()
			os.Exit(1)
		}
	}
	prof.stop()
}

// loadTenants reads a scenario tenant spec file, or returns nil (the
// built-in default mix) when no file is given.
func loadTenants(path string) ([]trace.TenantSpec, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tenants, err := trace.ReadScenarioSpec(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tenants, nil
}

// replay runs a trace file through all four systems and prints the
// Fig. 6(a)-style comparison, each system followed by the write cost
// and the sensing-level histogram that explain its latency.
func replay(w io.Writer, path, format string, pe int) error {
	if path == "" {
		return fmt.Errorf("replay needs -in <file>")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	logical := core.DefaultOptions(core.Baseline, pe).SSD.FTL.LogicalPages
	var reqs []trace.Request
	switch format {
	case "csv":
		// MSR input is wrapped into the device; CSV requests must already
		// lie inside it.
		if reqs, err = trace.ReadCSV(f); err == nil {
			err = trace.CheckStream(reqs, logical)
		}
	case "msr":
		cfg := trace.DefaultMSRConfig()
		cfg.WrapPages = logical / 2
		reqs, err = trace.ReadMSR(f, cfg)
	default:
		return fmt.Errorf("unknown trace format %q", format)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replaying %d requests from %s (%s format) at P/E %d\n", len(reqs), path, format, pe)
	var metrics []core.Metrics
	var ref float64
	for _, sys := range core.Systems() {
		r, err := core.NewRunner(core.DefaultOptions(sys, pe))
		if err != nil {
			return err
		}
		m, err := r.RunRequests(path, reqs, 0)
		if err != nil {
			return err
		}
		if sys == core.LDPCInSSD {
			ref = m.AvgResponse
		}
		metrics = append(metrics, m)
	}
	for _, m := range metrics {
		norm := 0.0
		if ref > 0 {
			norm = m.AvgResponse / ref
		}
		fmt.Fprintf(w, "  %-22s avg %9.1fµs (norm %5.2f) p99 read %9.1fµs\n",
			m.System, m.AvgResponse*1e6, norm, m.P99Read*1e6)
		fmt.Fprintf(w, "  %22s programs %d, erases %d, WA %.2f, migrations %d, capacity loss %.1f%%\n",
			"", m.TotalPrograms, m.Erases, m.WriteAmp, m.Migrations, 100*m.CapacityLoss)
		fmt.Fprintf(w, "  %22s sensing levels per read: %v\n", "", m.LevelHist)
	}
	return nil
}
