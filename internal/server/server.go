// Package server exposes the simulated FlexLevel SSD as a long-running
// multi-tenant block service (`flexlevel serve`): an HTTP read/write
// API with per-tenant namespaces, admission control and graceful
// degradation, built for sustained overload rather than one-shot
// replay.
//
// The simulator is single-threaded by design (ssd.Device and
// core.Runner share no locks), so every device touch serializes
// through an engine goroutine fed by a bounded op channel. With
// Config.Shards > 1 the service runs N such engines side by side —
// the logical space partitions into contiguous shard ranges, each
// with its own ftl/ssd.Device, sim clock and journal, and a router
// pins every tenant to the shard owning its window base (shard.go) —
// which is how the serve path scales across cores the way real SSD
// firmware scales across channels and dies. Shards = 1 (the default)
// is the legacy single-engine path, bit for bit.
//
// Handlers admit under a mutex — draining flag, per-tenant admission
// queue bound — and then block only on their own reply channel. Each
// engine owns its shard's simulated clock: each admitted op advances
// it by Config.SimGap (the modeled interarrival gap), computes the
// op's submit time under the tenant's queue-depth window exactly as
// a queue-depth replay (core.Runner.Replay at qd >= 1) would, and
// rejects — token bucket empty, projected queue wait past the SLO
// budget, deadline already blown — before the device is touched.
// Rejections are counted (core.Runner.CountShed /
// CountDeadlineExceeded) and never produce a latency sample, so the
// served percentiles describe admitted traffic only.
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
// — the SIGTERM drain contract, now per-shard.
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

	// Shards is the engine count: the logical space splits into this
	// many contiguous sub-devices, each behind its own engine
	// goroutine, sim clock and journal (shard.go). 0 or 1 selects the
	// legacy single-engine path unchanged.
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
	// CrashShard selects which engine CrashAtOp counts ops on
	// (default 0 — with one shard, exactly the legacy semantics).
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

// checkBucket refuses a token bucket that would silently misbehave: a
// NaN or negative value would read as "unlimited" or "default", and a
// burst below one token could never admit an op.
func checkBucket(rate, burst float64) error {
	for _, v := range [2]float64{rate, burst} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("server: token bucket rate %g, burst %g: both must be finite and >= 0", rate, burst)
		}
	}
	if rate > 0 && burst > 0 && burst < 1 {
		return fmt.Errorf("server: token bucket burst %g below one token sheds every op", burst)
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

// tenantState is one tenant's engine-owned admission state. Each
// tenant belongs to exactly one shard (router affinity), so exactly
// one engine goroutine ever touches it — no locks, as in the
// single-engine original.
type tenantState struct {
	spec trace.TenantSpec

	// Token bucket, refilled on the owning shard's simulated clock.
	tokens     float64
	lastRefill time.Duration

	// The tenant's queue-depth window, the one core.Runner.Replay uses.
	window *core.Window
}

// Server is the block service. Create with New, serve via Handler (or
// cmd/flexlevel's HTTP listener), stop with Shutdown.
type Server struct {
	cfg     Config
	router  *shardRouter
	shards  []*engineShard
	tenants []*tenantState
	index   map[string]int // tenant name -> index

	// Admission state, shared handler/engine.
	mu       sync.Mutex
	draining bool
	queued   []int // per-tenant admitted-but-unreplied counts

	drainDone chan struct{}
	drainOnce sync.Once

	// Observability state, shared engines/handlers under statMu.
	statMu  sync.Mutex
	stats   serverStats
	started time.Time

	// writeFile persists the final snapshot; swapped in tests.
	writeFile func(path string, data []byte) error
}

// New builds the server, preconditions every shard's device (each
// tenant window preloaded on its owning shard) and starts the engine
// goroutines.
func New(cfg Config) (*Server, error) {
	if err := checkBucket(cfg.Rate, cfg.Burst); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.CrashShard < 0 || cfg.CrashShard >= cfg.Shards {
		return nil, fmt.Errorf("server: crash shard %d outside [0,%d)", cfg.CrashShard, cfg.Shards)
	}
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

	router := newShardRouter(cfg.Shards, logical, cfg.Tenants)
	owned := make([][]int, cfg.Shards)
	for i := range cfg.Tenants {
		k := router.tenantOf(i)
		owned[k] = append(owned[k], i)
	}

	s := &Server{
		cfg:       cfg,
		router:    router,
		index:     index,
		queued:    make([]int, len(cfg.Tenants)),
		drainDone: make(chan struct{}),
		started:   time.Now(),
		writeFile: defaultWriteFile,
	}
	s.tenants = make([]*tenantState, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		s.tenants[i] = &tenantState{spec: t, tokens: cfg.Burst, window: core.NewWindow(cfg.QueueDepth)}
	}
	s.stats.init(cfg, trace.TenantNames(cfg.Tenants))

	s.shards = make([]*engineShard, cfg.Shards)
	for k := 0; k < cfg.Shards; k++ {
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
	shard := s.shards[s.router.tenantOf(o.tenant)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errDraining
	}
	if s.queued[o.tenant] >= s.cfg.MaxQueue {
		return errQueueFull
	}
	s.queued[o.tenant]++
	shard.ops <- o
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
		s.statMu.Lock()
		s.stats.tenants[o.tenant].queueFull++
		s.statMu.Unlock()
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

func (s *Server) countShed(e *engineShard, tenant int) {
	e.runner.CountShed()
	s.statMu.Lock()
	s.stats.tenants[tenant].shed++
	s.statMu.Unlock()
}

func (s *Server) countDeadline(e *engineShard, tenant int) {
	e.runner.CountDeadlineExceeded()
	s.statMu.Lock()
	s.stats.tenants[tenant].deadline++
	s.statMu.Unlock()
}

// finalize flushes the final merged snapshot at the end of a drain.
// Runs once, after every shard's engine has exited and refreshed its
// telemetry.
func (s *Server) finalize() {
	snap := s.snapshotLocked()
	if s.cfg.SnapshotPath != "" {
		if data, err := snap.marshal(); err == nil {
			// Best effort: a failed snapshot write must not block the
			// drain; the error surfaces in the caller's logs via Err.
			if werr := s.writeFile(s.cfg.SnapshotPath, data); werr != nil {
				s.statMu.Lock()
				s.stats.snapshotErr = werr.Error()
				s.statMu.Unlock()
				snap.SnapshotError = werr.Error()
			}
		}
	}
	s.statMu.Lock()
	s.stats.final = &snap
	s.statMu.Unlock()
}

// Shutdown drains the server: admission stops immediately (handlers
// return 503 draining), every already-admitted op completes on its
// shard, the final merged snapshot is written, and every engine exits.
// Safe to call more than once; ctx bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() {
		sentinels := make([]*op, len(s.shards))
		s.mu.Lock()
		s.draining = true
		// FIFO per shard: each sentinel follows every op admitted to
		// that shard before the flag flipped, so each engine sees it
		// only after finishing them.
		for i, e := range s.shards {
			sentinels[i] = &op{sentinel: true, reply: make(chan opResult, 1)}
			e.ops <- sentinels[i]
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

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
