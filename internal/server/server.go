// Package server exposes the simulated FlexLevel SSD as a long-running
// multi-tenant block service (`flexlevel serve`): an HTTP read/write
// API with per-tenant namespaces, admission control and graceful
// degradation, built for sustained overload rather than one-shot
// replay.
//
// The simulator is single-threaded by design (ssd.Device and
// core.Runner share no locks), so every device touch serializes
// through an engine goroutine fed by a bounded op channel. With
// Config.Shards > 1 the service runs N such engines side by side, each
// with its own full-size ftl/ssd.Device, sim clock and journal, and
// every tenant is placed on one shard by its window base (shard.go) —
// which is how the serve path scales across cores the way real SSD
// firmware scales across channels and dies.
//
// Each piece of state has one owner. A tenant record holds the
// tenant's shard, admission state and outcome counters; a shard record
// holds its engine, device and published telemetry. One mutex,
// Server.mu, guards everything handlers and engines share: a handler
// takes it once to admit an op, an engine once to settle it. Each
// engine owns its shard's simulated clock: each admitted op advances
// it by Config.SimGap (the modeled interarrival gap), computes the
// op's submit time under the tenant's queue-depth window exactly as
// a queue-depth replay (core.Runner.Replay at qd >= 1) would, and
// rejects — token bucket empty, projected queue wait past the SLO
// budget, deadline already blown — before the device is touched.
// Rejections are counted once, per tenant, and never produce a latency
// sample, so the served percentiles describe admitted traffic only.
//
// Robustness: a power loss (injected, or scripted via CrashAtOp) kills
// the in-flight op with a retryable error — it is never acknowledged —
// and, with AutoRestart, the owning engine brings its device back
// through ftl.Recover before its next op; a crash on one shard never
// touches another shard's acked writes, and per-tenant ack sequences
// live in server memory above device volatility, so they stay dense
// across any single-shard crash. A degraded device (spares exhausted)
// fails writes with a typed read-only error while reads keep flowing.
// Shutdown stops admission, lets every queued op finish on every
// shard, writes a final merged metrics snapshot and only then returns
// — the SIGTERM drain contract, per shard.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"flexlevel/internal/core"
	"flexlevel/internal/fault"
	"flexlevel/internal/ftl"
	"flexlevel/internal/trace"
)

// Defaults for the knobs a zero Config leaves unset, and the fixed
// service bounds: the length of each /metrics latency ring, each
// device's read response-time reservoir (ssd.Config.SampleCap) and the
// page count of one request (400 beyond it).
const (
	DefaultQueueDepth   = 8
	DefaultMaxQueue     = 64
	DefaultSimGap       = 20 * time.Microsecond
	DefaultRingSize     = 4096
	DefaultSampleCap    = 1 << 16
	DefaultMetricsEvery = 256
	DefaultMaxPages     = 64
)

// Config parameterizes a Server.
type Config struct {
	// System/PE/Channels/Seed select the simulated device, as in the
	// experiment sweeps. Channels 0 keeps core's default.
	System   core.System
	PE       int
	Channels int
	Seed     int64

	// Shards is the engine count: this many full-size devices, each
	// behind its own engine goroutine, sim clock and journal, with
	// every tenant placed on one of them by its window base (shard.go).
	// 0 means 1.
	Shards int

	// Tenants defines the namespaces: each tenant addresses logical
	// pages [0, WorkingSet) of its own window (absolute LPN = Base +
	// page). Empty selects trace.DefaultTenants over the device.
	Tenants []trace.TenantSpec

	// QueueDepth is the per-tenant outstanding window on the device —
	// the NCQ slice each tenant gets (Replay's qd semantics per tenant).
	QueueDepth int
	// MaxQueue bounds each tenant's admission queue: requests beyond it
	// are shed at the door with 429 before touching the engine.
	MaxQueue int
	// Rate, when positive, is each tenant's token-bucket rate in
	// requests per simulated second; Burst is the bucket size (defaults
	// to Rate's one-second volume, min 1). Both must be finite and
	// non-negative, and with a Rate set an explicit Burst must be at
	// least 1: an op takes one token, so a smaller bucket sheds every op.
	Rate  float64
	Burst float64
	// SLOWait, when positive, sheds any op whose projected simulated
	// queue wait (submit − arrival under the tenant's window) exceeds
	// it: the wait is exactly the latency the op is about to be charged
	// beyond service time, so shedding on it keeps admitted p99 within
	// budget and self-clears as soon as the backlog drains.
	SLOWait time.Duration
	// Deadline is the default per-request simulated deadline (0 =
	// none); requests may tighten it per call. An op whose projected
	// wait exceeds its deadline is cancelled before submission.
	Deadline time.Duration
	// SimGap is the simulated interarrival gap charged per admitted op
	// — the modeled load intensity of the arriving stream (per shard).
	SimGap time.Duration

	// MetricsEvery refreshes the cached device telemetry every N ops.
	MetricsEvery int

	// Faults forwards a deterministic fault-injection config to the
	// devices (Weibull wear-out curves, transient read faults, a
	// scripted power cut, ...);
	// shards beyond the first decorrelate the draws by deriving their
	// fault seeds, the same way their device seeds derive.
	Faults fault.Config
	// FTL, when non-nil, overrides the device geometry — small devices
	// in tests, spare-block pools for fault runs. Journal settings are
	// still forced on when the crash options demand them.
	FTL *ftl.Config
	// CrashAtOp, when positive, scripts a sudden power loss immediately
	// before the Nth admitted op on CrashShard — the chaos-test hook.
	// The op sees a retryable power-loss error (it is never
	// acknowledged); other shards keep serving.
	CrashAtOp int64
	// CrashShard selects which engine CrashAtOp counts ops on.
	CrashShard int
	// AutoRestart recovers a crashed device in place via ftl.Recover
	// (requires the journal, which the server enables whenever
	// AutoRestart or CrashAtOp is set) and resumes serving.
	AutoRestart bool

	// SnapshotPath, when set, receives the final JSON metrics snapshot
	// on drain (via the writeFile hook, so tests can capture it).
	SnapshotPath string
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxQueue < 1 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.SimGap <= 0 {
		c.SimGap = DefaultSimGap
	}
	if c.MetricsEvery < 1 {
		c.MetricsEvery = DefaultMetricsEvery
	}
	if c.Rate > 0 && c.Burst <= 0 {
		c.Burst = c.Rate
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c
}

// validate refuses settings that would silently misbehave: a negative
// count or gap would read as its default, a NaN or negative bucket
// value as "unlimited" or "default", and a burst below one token could
// never admit an op. 0 keeps each default.
func (c Config) validate() error {
	switch {
	case c.Shards < 0:
		return fmt.Errorf("server: Shards %d, want >= 0", c.Shards)
	case c.QueueDepth < 0:
		return fmt.Errorf("server: QueueDepth %d, want >= 0", c.QueueDepth)
	case c.MaxQueue < 0:
		return fmt.Errorf("server: MaxQueue %d, want >= 0", c.MaxQueue)
	case c.SimGap < 0:
		return fmt.Errorf("server: SimGap %v, want >= 0", c.SimGap)
	case c.MetricsEvery < 0:
		return fmt.Errorf("server: MetricsEvery %d, want >= 0", c.MetricsEvery)
	case c.CrashShard < 0 || c.CrashShard >= max(c.Shards, 1):
		return fmt.Errorf("server: crash shard %d outside [0,%d)", c.CrashShard, max(c.Shards, 1))
	}
	for _, v := range [2]float64{c.Rate, c.Burst} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("server: token bucket rate %g, burst %g: both must be finite and >= 0", c.Rate, c.Burst)
		}
	}
	if c.Rate > 0 && c.Burst > 0 && c.Burst < 1 {
		return fmt.Errorf("server: token bucket burst %g below one token sheds every op", c.Burst)
	}
	return nil
}

// op is one admitted request travelling handler → engine → handler.
type op struct {
	tenant   int
	write    bool
	lpn      uint64 // tenant-relative page
	pages    int
	deadline time.Duration // sim-time budget; 0 = Config.Deadline
	sentinel bool          // drain marker: flush shard telemetry and exit
	reply    chan opResult
}

// opResult is the engine's verdict on one op.
type opResult struct {
	status     int    // HTTP status
	code       string // typed error code ("" on success)
	message    string
	retryAfter time.Duration // sim-time hint on 429/503
	latency    time.Duration // simulated response time (success)
	seq        uint64        // per-tenant ack sequence (successful writes)
}

// Typed error codes the API returns.
const (
	CodeShed        = "shed"              // 429: admission control rejected the op
	CodeQueueFull   = "queue_full"        // 429: per-tenant admission queue at bound
	CodeDeadline    = "deadline_exceeded" // 504: queue wait blew the op's deadline
	CodeReadOnly    = "read_only"         // 503: degraded device, writes disabled
	CodeWriteFailed = "write_failed"      // 503: program retries exhausted, nothing stored; retry
	CodePowerLoss   = "power_loss"        // 503: op died in a crash; retry after recovery
	CodeDraining    = "draining"          // 503: server is shutting down
	CodeBadRequest  = "bad_request"       // 400
	CodeInternal    = "internal"          // 500
)

// tenant is one tenant's whole state. It lives on exactly one shard,
// so only that shard's engine goroutine touches its admission state;
// the fields below it are shared with handlers under Server.mu.
type tenant struct {
	spec  trace.TenantSpec
	shard *engineShard

	// Token bucket, refilled on the owning shard's simulated clock.
	tokens     float64
	lastRefill time.Duration
	// The tenant's queue-depth window, the one core.Runner.Replay uses.
	window *core.Window

	// Guarded by Server.mu: admitted-but-unreplied ops, the only copy
	// of each request outcome count (the snapshot totals are their
	// sums), the ack sequence and the admitted-latency ring.
	queued    int
	admitted  int64
	reads     int64
	writes    int64
	shed      int64
	deadline  int64
	queueFull int64
	readOnly  int64
	powerLoss int64
	ackSeq    uint64
	ring      *latencyRing
}

// Server is the block service. Create with New, serve via Handler (or
// cmd/flexlevel's HTTP listener), stop with Shutdown.
type Server struct {
	cfg     Config
	shards  []*engineShard
	tenants []*tenant
	index   map[string]int // tenant name -> index

	// mu guards every piece of state handlers and engines share: the
	// fields below, the tenants' queued counts and outcome counters,
	// and each shard's published telemetry.
	mu             sync.Mutex
	draining       bool
	internalErrors int64 // 500 internal and 503 write_failed: no tenant owns them
	snapshotErr    string
	final          *Snapshot

	drainDone chan struct{}
	drainOnce sync.Once
	started   time.Time

	// writeFile persists the final snapshot; swapped in tests.
	writeFile func(path string, data []byte) error
}

// New builds the server, preconditions every shard's device (each
// tenant window preloaded on its owning shard) and starts the engine
// goroutines.
func New(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	logical := core.DefaultOptions(cfg.System, cfg.PE).SSD.FTL.LogicalPages
	if cfg.FTL != nil {
		logical = cfg.FTL.LogicalPages
	}
	if len(cfg.Tenants) == 0 {
		cfg.Tenants = trace.DefaultTenants(logical)
	}
	index := make(map[string]int, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("server: tenant %d: %w", i, err)
		}
		if _, dup := index[t.Name]; dup {
			return nil, fmt.Errorf("server: duplicate tenant %q", t.Name)
		}
		index[t.Name] = i
	}
	if err := trace.CheckWindows(cfg.Tenants, logical); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}

	place := make([]int, len(cfg.Tenants))
	owned := make([][]trace.TenantSpec, cfg.Shards)
	for i, t := range cfg.Tenants {
		place[i] = shardOf(t.Base, logical, cfg.Shards)
		owned[place[i]] = append(owned[place[i]], t)
	}
	s := &Server{
		cfg:       cfg,
		index:     index,
		drainDone: make(chan struct{}),
		started:   time.Now(),
		writeFile: defaultWriteFile,
	}
	s.shards = make([]*engineShard, cfg.Shards)
	for k := range s.shards {
		e, err := newEngineShard(k, cfg, owned[k])
		if err != nil {
			// No engine goroutine has started yet (they launch below,
			// only after every shard built), so there is nothing to
			// drain — earlier shards' devices are just garbage.
			return nil, fmt.Errorf("server: shard %d: %w", k, err)
		}
		e.srv = s
		s.shards[k] = e
	}
	s.tenants = make([]*tenant, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		s.tenants[i] = &tenant{
			spec: t, shard: s.shards[place[i]], tokens: cfg.Burst,
			window: core.NewWindow(cfg.QueueDepth), ring: newLatencyRing(DefaultRingSize),
		}
	}
	for _, e := range s.shards {
		go e.engine()
	}
	return s, nil
}

// Tenant resolves a tenant name to its index.
func (s *Server) Tenant(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Tenants lists the tenant specs in index order.
func (s *Server) Tenants() []trace.TenantSpec { return s.cfg.Tenants }

// errQueueFull and errDraining are the handler-side admission
// rejections.
var (
	errQueueFull = errors.New("server: tenant admission queue full")
	errDraining  = errors.New("server: draining")
)

// admit enqueues o for its tenant's engine, or rejects it at the door.
// The channel send happens under mu with guaranteed capacity, so
// admission order equals engine order (FIFO per shard) and the drain
// sentinel provably follows every admitted op on its shard.
func (s *Server) admit(o *op) error {
	t := s.tenants[o.tenant]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errDraining
	}
	if t.queued >= s.cfg.MaxQueue {
		t.queueFull++
		return errQueueFull
	}
	t.queued++
	t.shard.ops <- o
	return nil
}

// do admits o and waits for the engine's reply. ctx covers the wait —
// an HTTP client that disconnects stops waiting, but the op still runs
// (its slot is charged either way).
func (s *Server) do(ctx context.Context, o *op) opResult {
	o.reply = make(chan opResult, 1)
	if err := s.admit(o); err != nil {
		if errors.Is(err, errDraining) {
			return opResult{status: 503, code: CodeDraining, message: "server is draining"}
		}
		return opResult{
			status: 429, code: CodeQueueFull,
			message:    "tenant admission queue full",
			retryAfter: s.cfg.SimGap * time.Duration(s.cfg.MaxQueue),
		}
	}
	select {
	case res := <-o.reply:
		return res
	case <-ctx.Done():
		return opResult{status: 503, code: CodeDraining, message: ctx.Err().Error()}
	}
}

// finalize flushes the final merged snapshot at the end of a drain.
// Runs once, after every shard's engine has exited and refreshed its
// telemetry.
func (s *Server) finalize() {
	snap := s.Snapshot()
	if s.cfg.SnapshotPath != "" {
		if data, err := snap.marshal(); err == nil {
			// Best effort: a failed snapshot write must not block the
			// drain; the error surfaces in the caller's logs via Err.
			if werr := s.writeFile(s.cfg.SnapshotPath, data); werr != nil {
				snap.SnapshotError = werr.Error()
			}
		}
	}
	s.mu.Lock()
	s.snapshotErr = snap.SnapshotError
	s.final = &snap
	s.mu.Unlock()
}

// Shutdown drains the server: admission stops immediately (handlers
// return 503 draining), every already-admitted op completes on its
// shard, the final merged snapshot is written, and every engine exits.
// Safe to call more than once; ctx bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		// FIFO per shard: each sentinel follows every op admitted to
		// that shard before the flag flipped, so each engine sees it
		// only after finishing them.
		for _, e := range s.shards {
			e.ops <- &op{sentinel: true}
		}
		s.mu.Unlock()
		go func() {
			for _, e := range s.shards {
				<-e.engineDone
			}
			s.finalize()
			close(s.drainDone)
		}()
	})
	select {
	case <-s.drainDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
