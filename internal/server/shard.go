// Sharded multi-engine serve path. The simulator is single-threaded by
// design, so one engine goroutine can never use more than one core —
// the PR 8 server was pinned there no matter how many cores the host
// had. Real SSD firmware scales by partitioning the device across
// independent per-channel/per-die engines behind a shared front end,
// and this file does the same: the logical address space splits into
// Config.Shards contiguous ranges, each owned by an engineShard with
// its own ftl/ssd.Device, bounded op channel, simulated clock and
// journal. A router assigns every LPN to exactly one shard and every
// tenant to the shard owning its window base, so a tenant's window
// never straddles shards and each tenantState is touched by exactly
// one engine goroutine — the per-shard state needs no locks, exactly
// like the single-engine original.
//
// Shard 0 with Shards=1 is the legacy path, bit for bit: the same
// seed, the same preload, the same clock discipline, the same
// admission gates in the same order. Shards k>0 derive their device
// seeds through runner.DeriveSeed, the same pure derivation the
// parallel experiment engine uses for its workers.
package server

import (
	"errors"
	"fmt"
	"time"

	"flexlevel/internal/accesseval"
	"flexlevel/internal/core"
	"flexlevel/internal/ftl"
	"flexlevel/internal/runner"
	"flexlevel/internal/trace"
)

// shardRouter is the pure routing function of the sharded server:
// logical space → contiguous shard ranges, tenant → shard of its
// window base. Both mappings are total and deterministic — two
// routers built from the same inputs agree on every address — which
// is what makes the per-shard journals recoverable: after a crash the
// rebuilt router sends every LPN back to the shard whose journal
// holds it.
type shardRouter struct {
	shards      int
	perShard    uint64 // ceil(logicalPages / shards)
	tenantShard []int  // tenant index -> owning shard
}

func newShardRouter(shards int, logicalPages uint64, tenants []trace.TenantSpec) *shardRouter {
	if shards < 1 {
		shards = 1
	}
	per := (logicalPages + uint64(shards) - 1) / uint64(shards)
	if per == 0 {
		per = 1
	}
	r := &shardRouter{shards: shards, perShard: per}
	r.tenantShard = make([]int, len(tenants))
	for i, t := range tenants {
		r.tenantShard[i] = r.lpnShard(t.Base)
	}
	return r
}

// lpnShard maps an absolute LPN to its owning shard: contiguous
// ranges of perShard pages, with everything past the last boundary
// clamped into the final shard so the function is total over uint64.
func (r *shardRouter) lpnShard(lpn uint64) int {
	s := int(lpn / r.perShard)
	if s >= r.shards {
		s = r.shards - 1
	}
	return s
}

// tenantOf returns the shard owning tenant i's window. Tenant
// affinity is absolute: every op of the tenant — whatever LPN inside
// the window it touches — runs on this shard, so a window that
// numerically crosses a range boundary still never straddles engines.
func (r *shardRouter) tenantOf(i int) int { return r.tenantShard[i] }

// engineShard is one independent engine: a full device behind its own
// bounded op channel and simulated clock. All fields below the
// channel are engine-goroutine-only, like the original single-engine
// state.
type engineShard struct {
	id     int
	srv    *Server
	runner *core.Runner
	// tenantIdx lists the global tenant indices this shard owns.
	tenantIdx []int

	ops        chan *op
	engineDone chan struct{}

	// Engine-owned simulation state (no locks: one goroutine).
	simNow  time.Duration
	opCount int64
}

// newEngineShard builds shard id's runner and preloads the windows of
// the tenants it owns. Shard 0 reproduces the legacy construction
// exactly (same seed, same options); other shards derive their device
// seed from the master seed and the shard key.
func newEngineShard(id int, cfg Config, owned []int) (*engineShard, error) {
	opts := core.DefaultOptions(cfg.System, cfg.PE)
	if cfg.Channels > 0 {
		opts.SSD.Channels = cfg.Channels
	}
	seed := cfg.Seed
	if id > 0 {
		seed = runner.DeriveSeed(cfg.Seed, fmt.Sprintf("serve-shard/%d", id))
	}
	if seed != 0 {
		opts.SSD.Seed = seed
	}
	opts.SSD.SampleCap = DefaultSampleCap
	opts.SSD.Faults = cfg.Faults
	if id > 0 && opts.SSD.Faults.Seed != 0 {
		// Decorrelate the Weibull draws across shards the same way the
		// device seeds decorrelate; shard 0 keeps the configured seed.
		opts.SSD.Faults.Seed = runner.DeriveSeed(opts.SSD.Faults.Seed, fmt.Sprintf("serve-shard-faults/%d", id))
	}
	if cfg.FTL != nil {
		opts.SSD.FTL = *cfg.FTL
		opts.AccessEval = accesseval.DefaultParams(opts.SSD.FTL.LogicalPages)
	}
	if cfg.AutoRestart || cfg.CrashAtOp > 0 {
		// Crash recovery needs the durable journal — one per shard, so a
		// crash on this shard replays only its own records.
		opts.SSD.FTL.Journal = ftl.JournalConfig{Enabled: true, FlushRecords: 64, CheckpointEveryFlushes: 8}
	}
	r, err := core.NewRunner(opts)
	if err != nil {
		return nil, err
	}
	mine := make([]trace.TenantSpec, len(owned))
	for i, ti := range owned {
		mine[i] = cfg.Tenants[ti]
	}
	if err := r.Prepare(nil, trace.WindowEnd(mine)); err != nil {
		return nil, err
	}
	e := &engineShard{
		id:         id,
		runner:     r,
		tenantIdx:  owned,
		engineDone: make(chan struct{}),
	}
	// The channel holds every admissible op of this shard's tenants
	// plus the drain sentinel, so a send under the server mutex never
	// blocks. An idle shard (no tenants) still takes the sentinel.
	e.ops = make(chan *op, len(owned)*cfg.MaxQueue+1)
	return e, nil
}

// engine is the goroutine that owns this shard's device and simulated
// clock — a verbatim transplant of the single-engine loop.
func (e *engineShard) engine() {
	s := e.srv
	defer close(e.engineDone)
	for o := range e.ops {
		if o.sentinel {
			// Refresh this shard's telemetry so the coordinator's final
			// snapshot merges fresh numbers, then exit; the coordinator
			// (Shutdown) composes and writes the snapshot once every
			// shard has drained.
			e.refreshDeviceMetrics()
			o.reply <- opResult{status: 200}
			return
		}
		res := e.process(o)
		// Refresh the cached device telemetry on a fixed op cadence
		// regardless of outcome — a fully-shedding or degraded shard
		// must still report fresh /metrics and /healthz.
		if e.opCount%int64(s.cfg.MetricsEvery) == 0 {
			e.refreshDeviceMetrics()
		}
		s.mu.Lock()
		s.queued[o.tenant]--
		s.mu.Unlock()
		o.reply <- res
	}
}

// process runs one op through admission control and, if it survives,
// this shard's device. Engine goroutine only.
func (e *engineShard) process(o *op) opResult {
	s := e.srv
	e.opCount++
	if s.cfg.CrashAtOp > 0 && e.id == s.cfg.CrashShard && e.opCount == s.cfg.CrashAtOp && !e.runner.Device().Crashed() {
		// Scripted sudden power loss on this shard: volatile state is
		// gone; this op — and every op queued here until recovery —
		// dies unacknowledged. Other shards never notice.
		e.runner.Device().Crash()
	}

	arrival := e.simNow
	e.simNow += s.cfg.SimGap
	t := s.tenants[o.tenant]

	// Token bucket on this shard's simulated clock.
	if s.cfg.Rate > 0 {
		t.tokens += s.cfg.Rate * (arrival - t.lastRefill).Seconds()
		if t.tokens > s.cfg.Burst {
			t.tokens = s.cfg.Burst
		}
		t.lastRefill = arrival
		if t.tokens < 1 {
			wait := time.Duration((1 - t.tokens) / s.cfg.Rate * float64(time.Second))
			s.countShed(e, o.tenant)
			return opResult{
				status: 429, code: CodeShed,
				message:    "tenant rate limit exceeded",
				retryAfter: wait,
			}
		}
		t.tokens--
	}

	// The tenant's queue-depth window, with Replay's discipline:
	// when full, the op waits for the earliest outstanding completion.
	submit := t.window.Submit(arrival)
	wait := submit - arrival

	// SLO shedding: the projected wait is known before the device is
	// touched, so overload is rejected deterministically and admitted
	// ops keep their latency budget. Sheds free no window slot — the
	// backlog drains at device speed — but every shed skips a SimGap of
	// offered load, so the rejection clears itself.
	if s.cfg.SLOWait > 0 && wait > s.cfg.SLOWait {
		s.countShed(e, o.tenant)
		return opResult{
			status: 429, code: CodeShed,
			message:    fmt.Sprintf("projected queue wait %v exceeds SLO budget %v", wait, s.cfg.SLOWait),
			retryAfter: wait - s.cfg.SLOWait,
		}
	}

	// Deadline: cancel queued work that cannot start in time.
	deadline := o.deadline
	if deadline <= 0 {
		deadline = s.cfg.Deadline
	}
	if deadline > 0 && wait > deadline {
		s.countDeadline(e, o.tenant)
		return opResult{
			status: 504, code: CodeDeadline,
			message: fmt.Sprintf("queue wait %v exceeds deadline %v", wait, deadline),
		}
	}

	// Degraded device: reads keep flowing, writes fail typed before
	// they reach the device.
	if o.write && e.runner.Device().Degraded() {
		return e.readOnly(o, "device degraded: read-only mode")
	}

	req := trace.Request{
		Arrival: submit,
		Op:      trace.Read,
		LPN:     t.spec.Base + o.lpn,
		Pages:   o.pages,
		Tenant:  o.tenant,
	}
	if o.write {
		req.Op = trace.Write
	}
	done, err := e.runner.StepAt(req, submit)
	if err != nil {
		if errors.Is(err, ftl.ErrPowerLoss) {
			return e.handlePowerLoss(o)
		}
		res := opResult{status: 500, code: CodeInternal, message: err.Error()}
		var we *core.WriteError
		if o.write && ftl.WriteRefused(err) && errors.As(err, &we) {
			e.refreshDeviceMetrics()
			switch {
			case we.Stored > 0:
				// Some pages are remapped already, so this is no clean
				// refusal: the write fails unacked.
				res.message = fmt.Sprintf("%s: %d of %d pages written", res.message, we.Stored, o.pages)
			case e.runner.Device().Degraded():
				// No page went through, so the write's old mapping
				// survives: a refusal like every later write's, naming
				// what ended the write life.
				return e.readOnly(o, res.message)
			default:
				// Nothing stored on a device that still takes writes.
				res.status, res.code = 503, CodeWriteFailed
			}
		}
		s.statMu.Lock()
		s.stats.internalErrors++
		s.statMu.Unlock()
		return res
	}
	t.window.Complete(done)

	latency := done - arrival
	res := opResult{status: 200, latency: latency}
	s.statMu.Lock()
	ts := s.stats.tenants[o.tenant]
	ts.admitted++
	s.stats.rings[e.id].add(latency.Seconds())
	ts.ring.add(latency.Seconds())
	if o.write {
		ts.ackSeq++
		res.seq = ts.ackSeq
		ts.writes++
	} else {
		ts.reads++
	}
	s.stats.shardSimTime[e.id] = e.simNow
	s.statMu.Unlock()
	return res
}

// readOnly refuses a write on a shard past its write life with the
// typed 503 and counts it against the tenant.
func (e *engineShard) readOnly(o *op, msg string) opResult {
	s := e.srv
	s.statMu.Lock()
	s.stats.tenants[o.tenant].readOnly++
	s.statMu.Unlock()
	return opResult{status: 503, code: CodeReadOnly, message: msg}
}

// handlePowerLoss settles an op that died in a crash of this shard:
// the op is never acknowledged, and with AutoRestart the shard's
// device is recovered in place before its next op runs. Other shards
// keep serving throughout — their acked writes are never at risk.
func (e *engineShard) handlePowerLoss(o *op) opResult {
	s := e.srv
	recovered := false
	if s.cfg.AutoRestart {
		if _, err := e.runner.Device().Restart(e.simNow); err == nil {
			recovered = true
			// Recovery charged every channel; in-sim time moved on.
			if now := e.runner.Device().Now(); now > e.simNow {
				e.simNow = now
			}
			// This shard's tenants' outstanding windows died with the
			// queues; other shards' windows are untouched.
			for _, ti := range e.tenantIdx {
				s.tenants[ti].window.Reset()
			}
		}
	}
	s.statMu.Lock()
	s.stats.tenants[o.tenant].powerLoss++
	s.stats.shardCrashed[e.id] = !recovered
	s.statMu.Unlock()
	e.refreshDeviceMetrics()
	msg := "power loss: request not acknowledged"
	if recovered {
		msg += "; device recovered, retry"
	}
	return opResult{
		status: 503, code: CodePowerLoss, message: msg,
		retryAfter: s.cfg.SimGap * 16,
	}
}

// refreshDeviceMetrics caches this shard's full telemetry (device,
// cache, calibration, crash-recovery counters) for /metrics. Engine
// goroutine only: Finish reorders the shared read sample to answer its
// percentiles.
func (e *engineShard) refreshDeviceMetrics() {
	m := e.runner.Finish("serve")
	s := e.srv
	s.statMu.Lock()
	s.stats.shardDevice[e.id] = m
	s.stats.haveDevice[e.id] = true
	s.statMu.Unlock()
}
