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
//	flexlevel all   [-n N]       everything above but replay, in order
//
// Beyond the one-shot experiments, serve runs the simulated SSD as a
// long-running multi-tenant block service and load drives it:
//
//	flexlevel serve [-addr :8077] [-tenants f] [-qd 8] [-slo d] ...
//	flexlevel load  [-url u] [-n 100000] [-gate] [-json] ...
//
// Three tools evaluate the models and inputs directly, each with its
// own flags (see cmd/flexlevel/tools.go):
//
//	flexlevel ber [-scheme s] [-pe c] [-hours h] [-sweep] [-density]  raw BER, correctable bits, extra levels
//	flexlevel tracegen [-w name] [-n N] [-list] [-summary] [-tenants N]  workload trace or tenant spec CSV
//	flexlevel fer [-frames f] [-bers list] [-construction ira|qc]  LDPC frame error rates over a BSC
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
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"flexlevel/internal/core"
	"flexlevel/internal/exp"
	"flexlevel/internal/runner"
	"flexlevel/internal/trace"
)

// subcommands lists the experiment subcommands in usage order: the exp
// registry, with replay before reliability. replay reads a trace file,
// so it runs here and all leaves it out.
func subcommands() []string {
	var names []string
	for _, s := range exp.Sweeps {
		if s.Name == "reliability" {
			names = append(names, "replay")
		}
		names = append(names, s.Name)
	}
	return names
}

// tools are the subcommands with their own flag sets, dispatched before
// the shared experiment flag set. Each parses args and writes its
// output to w.
var tools = map[string]func(w io.Writer, args []string) error{
	"serve": serveCmd, "load": loadCmd,
	"ber": berCmd, "tracegen": tracegenCmd, "fer": ferCmd,
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: flexlevel <"+strings.Join(subcommands(), "|")+"|all> [-n requests] [-seed s] [-pe cycles] [-parallel w] [-faults m] [-crashes k] [-scale f] [-in file -format csv|msr] [-tenants file] [-cpuprofile f] [-memprofile f] [-trace f]")
	fmt.Fprintln(os.Stderr, "       flexlevel serve [-addr a] [-shards n] [-tenants f] [-qd d] [-rate r] [-slo d] [-deadline d] [-faults m] [-crash-at n] [-crash-shard k] [-auto-restart] [-snapshot f] [-pprof]")
	fmt.Fprintln(os.Stderr, "       flexlevel load  [-url u] [-n requests] [-tenants f] [-workers w] [-readratio r] [-gate] [-json]")
	fmt.Fprintln(os.Stderr, "       flexlevel ber [-scheme s] [-pe c] [-hours h] [-sweep] [-density] | tracegen [-w name] [-n requests] [-pages p] [-seed s] [-list] [-summary] [-tenants k] | fer [-frames f] [-bers list] [-construction ira|qc] [-seed s]")
	os.Exit(2)
}

// checkRate refuses a multiplier flag that is NaN, infinite or negative,
// or zero when positive is set.
func checkRate(flag string, v float64, positive bool) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || positive && v == 0 {
		bound := ">= 0"
		if positive {
			bound = "> 0"
		}
		return fmt.Errorf("-%s must be finite and %s, got %g", flag, bound, v)
	}
	return nil
}

// expOpts is the parsed form of an experiment subcommand: the registry
// environment plus the flags the CLI handles itself.
type expOpts struct {
	env                              exp.Env
	traceFile, format, csvDir        string
	cpuProfile, memProfile, traceOut string
}

func parseExp(cmd string, args []string) (expOpts, error) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	n := fs.Int("n", 60000, "requests per workload for system experiments")
	seed := fs.Int64("seed", 1, "master seed: workload generation and per-shard derived seeds")
	pe := fs.Int("pe", 6000, "P/E cycle point for fig6a/fig7/ablations/reliability/crash/throughput/scenario/lifetime/replay (fig6b sweeps 4000-6000)")
	parallel := fs.Int("parallel", 0, "experiment engine workers (0 = all cores); results are byte-identical for any value")
	faults := fs.Float64("faults", 1, "fault-rate multiplier for the reliability and lifetime sweeps (0 disables injection)")
	scale := fs.Float64("scale", 1, "device-scale multiplier for the lifetime sweep (1 = the full 1M+ physical-page device)")
	crashes := fs.Int("crashes", 24, "crash points for the crash subcommand")
	var o expOpts
	fs.StringVar(&o.traceFile, "in", "", "trace file for the replay subcommand")
	fs.StringVar(&o.env.In.Tenants, "tenants", "", "tenant spec file for the scenario subcommand (default: built-in three-tenant mix)")
	fs.StringVar(&o.format, "format", "csv", "trace file format: csv (tracegen) or msr (MSR-Cambridge)")
	fs.StringVar(&o.csvDir, "csv", "", "also write plotting-friendly CSV artifacts into this directory")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&o.traceOut, "trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if err := errors.Join(checkRate("faults", *faults, false), checkRate("scale", *scale, true)); err != nil {
		return o, err
	}
	o.env.Sim = exp.SimConfig{Requests: *n, Seed: *seed, PE: *pe, Parallel: *parallel}
	in := &o.env.In
	in.CrashPoints = *crashes
	in.FaultScales = []float64{0}
	if m := *faults; m > 0 {
		in.FaultScales = append(in.FaultScales, 0.25*m, m, 4*m)
	}
	in.Lifetime = exp.DefaultLifetime()
	if floor := in.Lifetime.MinScale(); *scale < floor {
		return o, fmt.Errorf("-scale %g is below the smallest device scale %g", *scale, floor)
	}
	if *scale != 1 {
		in.Lifetime = in.Lifetime.Scaled(*scale)
	}
	in.Lifetime.FaultScale = *faults
	return o, nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	if tool, ok := tools[cmd]; ok {
		if err := tool(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "flexlevel:", err)
			if errors.As(err, new(usageError)) {
				usage()
			}
			os.Exit(1)
		}
		return
	}
	o, err := parseExp(cmd, os.Args[2:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexlevel:", err)
		usage()
	}
	sweeps := exp.Sweeps
	switch cmd {
	case "all": // the whole registry, in order
	case "replay":
		sweeps = []exp.Sweep{{Name: cmd, Run: func(e *exp.Env) error {
			return replay(e.Out, o.traceFile, o.format, e.Sim.PE)
		}}}
	default:
		s, ok := exp.Lookup(cmd)
		if !ok {
			usage() // before any profile file is created
		}
		sweeps = []exp.Sweep{s}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	env := &o.env
	env.Out, env.Emit, env.Sim.Ctx = os.Stdout, o.writeArtifact, ctx
	// Every engine sweep emits a machine-readable JSON summary (wall
	// time, speedup vs serial, ops/sec, per-shard timing) next to the
	// CSV artifacts when -csv is given.
	env.Sim.OnSummary = func(s *runner.Summary) {
		if err := env.Emit(s.Name+"_summary.json", s.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "flexlevel: summary:", err)
		}
	}
	// Profiling brackets the experiment work itself; usage errors above
	// exit before any profile file is created. os.Exit skips defers, so
	// every exit path below stops the profiler explicitly.
	prof, err := startProfiles(o.cpuProfile, o.memProfile, o.traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexlevel:", err)
		os.Exit(1)
	}
	for i, s := range sweeps {
		if i > 0 {
			fmt.Println()
		}
		if err := s.Run(env); err != nil {
			fmt.Fprintln(os.Stderr, "flexlevel:", err)
			prof.stop()
			os.Exit(1)
		}
	}
	prof.stop()
}

// writeArtifact writes one named artifact into the -csv directory;
// without -csv it writes nothing.
func (o *expOpts) writeArtifact(name string, write func(io.Writer) error) error {
	if o.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.csvDir, name))
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
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
		reqs, err = trace.ReadMSR(f, logical/2)
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
		m, err := r.Replay(nil, path, reqs, 0, 0)
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
