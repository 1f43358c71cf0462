// serve and load: the long-running block-service side of the binary.
//
//	flexlevel serve [-addr :8077] [-tenants f] [-qd 8] [-rate r] ...
//	flexlevel load  [-url http://...] [-n 100000] [-workers 8] ...
//
// serve exposes the simulated SSD as a multi-tenant HTTP read/write
// API (internal/server) and drains cleanly on SIGTERM/SIGINT: stop
// admitting, finish every in-flight op, flush the final metrics
// snapshot, then exit. load is the matching closed-loop generator with
// capped exponential backoff; with -gate it exits nonzero when the
// run's error budget is violated, which is how CI smokes the server.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flexlevel/internal/core"
	"flexlevel/internal/exp"
	"flexlevel/internal/server"
	"flexlevel/internal/trace"
)

// serveOpts is the parsed form of `flexlevel serve`.
type serveOpts struct {
	addr         string
	cfg          server.Config
	drainTimeout time.Duration
	pprof        bool
}

func parseServe(args []string) (serveOpts, error) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8077", "listen address")
	system := fs.String("system", core.FlexLevel.String(), "simulated system: baseline|ldpc-in-ssd|leveladjust-only|flexlevel")
	pe := fs.Int("pe", 6000, "P/E cycle point of the simulated device")
	seed := fs.Int64("seed", 1, "master seed: device, faults, access evaluation")
	channels := fs.Int("channels", 0, "flash channels (0 = core default)")
	tenantsFile := fs.String("tenants", "", "tenant spec CSV (tracegen -tenants); default: built-in three-tenant mix")
	qd := fs.Int("qd", server.DefaultQueueDepth, "per-tenant outstanding queue-depth window")
	maxQueue := fs.Int("maxqueue", server.DefaultMaxQueue, "per-tenant admission queue bound (429 past it)")
	rate := fs.Float64("rate", 0, "per-tenant token-bucket rate in requests per simulated second (0 = unlimited)")
	burst := fs.Float64("burst", 0, "token-bucket burst (0 = one second of -rate)")
	slo := fs.Duration("slo", 0, "shed ops whose projected simulated queue wait exceeds this (0 = off)")
	deadline := fs.Duration("deadline", 0, "default per-request simulated deadline (0 = none)")
	simGap := fs.Duration("simgap", server.DefaultSimGap, "simulated interarrival gap charged per admitted op")
	faults := fs.Float64("faults", 0, "fault-rate multiplier over the reliability sweep's 1x curves (0 = off)")
	crashAt := fs.Int64("crash-at", 0, "script a power loss before the Nth admitted op (0 = never)")
	crashShard := fs.Int("crash-shard", 0, "shard whose engine -crash-at counts ops on")
	autoRestart := fs.Bool("auto-restart", false, "recover a crashed device in place and resume serving")
	shards := fs.Int("shards", 1, "engine shards, each a full-size device; every tenant is placed on one by its window base")
	pprof := fs.Bool("pprof", false, "mount /debug/pprof/* profiling endpoints on the service mux")
	snapshot := fs.String("snapshot", "", "write the final JSON metrics snapshot here on drain")
	drain := fs.Duration("drain-timeout", 30*time.Second, "bound on the shutdown drain")
	if err := fs.Parse(args); err != nil {
		return serveOpts{}, err
	}
	if err := errors.Join(checkRate("faults", *faults, false),
		checkRate("rate", *rate, false), checkRate("burst", *burst, false)); err != nil {
		return serveOpts{}, err
	}
	sys, err := core.ParseSystem(*system)
	if err != nil {
		return serveOpts{}, err
	}
	tenants, err := exp.LoadTenants(*tenantsFile)
	if err != nil {
		return serveOpts{}, err
	}
	cfg := server.Config{
		System:       sys,
		PE:           *pe,
		Channels:     *channels,
		Seed:         *seed,
		Tenants:      tenants,
		QueueDepth:   *qd,
		MaxQueue:     *maxQueue,
		Rate:         *rate,
		Burst:        *burst,
		SLOWait:      *slo,
		Deadline:     *deadline,
		SimGap:       *simGap,
		CrashAtOp:    *crashAt,
		CrashShard:   *crashShard,
		AutoRestart:  *autoRestart,
		SnapshotPath: *snapshot,
		Shards:       *shards,
	}
	if *faults > 0 {
		cfg.Faults = exp.DefaultFaultConfig(*seed).Scaled(*faults)
	}
	return serveOpts{addr: *addr, cfg: cfg, drainTimeout: *drain, pprof: *pprof}, nil
}

// runServe listens, serves until ctx is cancelled (SIGTERM/SIGINT in
// the CLI; the test harness cancels directly), then drains: the block
// service stops admitting and finishes in-flight ops before the HTTP
// listener closes, so every accepted request gets a real answer.
// ready, when non-nil, receives the bound listen address.
func runServe(ctx context.Context, o serveOpts, ready chan<- string) error {
	s, err := server.New(o.cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		// The engine goroutine is already running; drain it before
		// reporting the listen failure.
		dctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		s.Shutdown(dctx)
		return err
	}
	var handler http.Handler = s.Handler()
	if o.pprof {
		// Profiling is opt-in: the endpoints expose stack traces and
		// timing side channels, so they never ride along silently.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	hs := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "flexlevel: serving %d tenants on %s (system %v, P/E %d)\n",
		len(s.Tenants()), ln.Addr(), o.cfg.System, o.cfg.PE)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		// Listener died on its own; still drain the engine.
		dctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		s.Shutdown(dctx)
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "flexlevel: draining (stop admitting, finish in-flight, flush snapshot)")
	dctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if snap, ok := s.FinalSnapshot(); ok {
		fmt.Fprintf(os.Stderr,
			"flexlevel: drained after %.1fs: %d admitted (%d reads, %d writes), %d shed, %d deadline, p99 %.0fµs\n",
			snap.UptimeSeconds, snap.Admitted, snap.Reads, snap.Writes,
			snap.Shed, snap.DeadlineExceeded, snap.P99*1e6)
		if snap.SnapshotError != "" {
			return fmt.Errorf("final snapshot: %s", snap.SnapshotError)
		}
	}
	return nil
}

func serveCmd(_ io.Writer, args []string) error {
	o, err := parseServe(args)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runServe(ctx, o, nil)
}

// loadOpts is the parsed form of `flexlevel load`.
type loadOpts struct {
	cfg  server.LoadConfig
	gate bool
	// maxShedRate bounds Shed/Sent when gating (<0 = no bound).
	maxShedRate float64
	jsonOut     bool
}

func parseLoad(args []string) (loadOpts, error) {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	url := fs.String("url", "http://localhost:8077", "base URL of a running flexlevel serve")
	n := fs.Int("n", 100000, "total requests, split across tenants by spec weight")
	tenantsFile := fs.String("tenants", "", "tenant spec CSV; must match the server's (default: built-in mix)")
	system := fs.String("system", core.FlexLevel.String(), "server's -system (sizes the default tenant windows)")
	pe := fs.Int("pe", 6000, "server's -pe (sizes the default tenant windows)")
	workers := fs.Int("workers", 8, "closed-loop workers per tenant")
	readRatio := fs.Float64("readratio", 0.7, "read fraction of generated ops")
	maxPages := fs.Int("maxpages", 4, "pages per op, uniform in [1, maxpages]")
	seed := fs.Int64("seed", 1, "generator seed (worker seeds derive from it)")
	retries := fs.Int("retries", 16, "retry budget per op before it counts as failed")
	backoff := fs.Duration("backoff", time.Millisecond, "base retry backoff (doubles per attempt, jittered)")
	backoffCap := fs.Duration("backoff-cap", 100*time.Millisecond, "retry backoff cap")
	gate := fs.Bool("gate", false, "exit nonzero unless the run holds the error budget (zero 5xx/bad/failed/duplicate-seq, dense acks, shed rate bound)")
	maxShed := fs.Float64("max-shed-rate", 0.5, "with -gate: highest tolerated shed fraction of round trips")
	jsonOut := fs.Bool("json", false, "print the full result as JSON instead of a summary")
	if err := fs.Parse(args); err != nil {
		return loadOpts{}, err
	}
	tenants, err := exp.LoadTenants(*tenantsFile)
	if err != nil {
		return loadOpts{}, err
	}
	if tenants == nil {
		// Mirror the serve default: the built-in mix over the selected
		// device's logical space, so windows line up without a spec file.
		sys, err := core.ParseSystem(*system)
		if err != nil {
			return loadOpts{}, err
		}
		tenants = trace.DefaultTenants(core.DefaultOptions(sys, *pe).SSD.FTL.LogicalPages)
	}
	// The split flexlevel scenario uses: by weight, flooring remainders
	// to the earliest tenants.
	counts := trace.TenantCounts(trace.InterleaveSpec{Tenants: tenants, Requests: *n})
	var lts []server.LoadTenant
	for i, t := range tenants {
		lts = append(lts, server.LoadTenant{Name: t.Name, Requests: counts[i], Window: t.WorkingSet})
	}
	return loadOpts{
		cfg: server.LoadConfig{
			BaseURL:     *url,
			Tenants:     lts,
			Workers:     *workers,
			ReadRatio:   *readRatio,
			MaxPages:    *maxPages,
			Seed:        *seed,
			BackoffBase: *backoff,
			BackoffCap:  *backoffCap,
			MaxRetries:  *retries,
		},
		gate:        *gate,
		maxShedRate: *maxShed,
		jsonOut:     *jsonOut,
	}, nil
}

// gateLoad checks a run against the CI error budget. Dense per-tenant
// ack sequences (max == count, no duplicates) are the client-visible
// proof of zero acknowledged-write loss.
func gateLoad(res server.LoadResult, maxShedRate float64) error {
	if res.Status5xx > 0 {
		return fmt.Errorf("gate: %d unexpected 5xx responses", res.Status5xx)
	}
	if res.BadStatus > 0 {
		return fmt.Errorf("gate: %d unexpected statuses", res.BadStatus)
	}
	if res.Failed > 0 {
		return fmt.Errorf("gate: %d ops exhausted their retry budget", res.Failed)
	}
	if res.SeqDuplicates > 0 {
		return fmt.Errorf("gate: %d duplicate ack sequences (acknowledged-write loss)", res.SeqDuplicates)
	}
	for name, max := range res.MaxSeq {
		if acks := res.WriteAcks[name]; max != uint64(acks) {
			return fmt.Errorf("gate: tenant %s ack sequences not dense (max %d, acked %d)", name, max, acks)
		}
	}
	if maxShedRate >= 0 && res.Sent > 0 {
		if rate := float64(res.Shed) / float64(res.Sent); rate > maxShedRate {
			return fmt.Errorf("gate: shed rate %.3f exceeds bound %.3f", rate, maxShedRate)
		}
	}
	return nil
}

func loadCmd(w io.Writer, args []string) error {
	o, err := parseLoad(args)
	if err != nil {
		return err
	}
	res, err := server.Load(o.cfg)
	if err != nil {
		return err
	}
	if o.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		total := res.OK + res.Failed + res.Deadline
		fmt.Fprintf(w, "load: %d ops settled in %.1fs (%.0f ops/s wall): %d ok (%d reads, %d writes), %d deadline, %d failed\n",
			total, res.WallSeconds, float64(total)/res.WallSeconds,
			res.OK, res.ReadOK, res.WriteOK, res.Deadline, res.Failed)
		fmt.Fprintf(w, "load: %d round trips, %d retries, %d shed (429), %d retryable 503, %d bad, %d 5xx\n",
			res.Sent, res.Retries, res.Shed, res.Retryable, res.BadStatus, res.Status5xx)
		for name, max := range res.MaxSeq {
			fmt.Fprintf(w, "load: tenant %-12s acked %6d writes, max seq %6d, dense %v\n",
				name, res.WriteAcks[name], max, max == uint64(res.WriteAcks[name]))
		}
	}
	if o.gate {
		if err := gateLoad(res, o.maxShedRate); err != nil {
			return err
		}
		fmt.Fprintln(w, "load: gate passed")
	}
	return nil
}
