// Sharded multi-engine serve path. The simulator is single-threaded by
// design, so one engine goroutine can never use more than one core.
// Real SSD firmware scales by running independent per-channel/per-die
// engines behind a shared front end, and this file does the same:
// Config.Shards engineShards each own a full-size ftl/ssd.Device,
// bounded op channel, simulated clock and journal. Every tenant is
// placed on one shard by its window base, so a tenant's ops never
// straddle engines and its admission state is touched by exactly one
// engine goroutine, with no lock.
//
// Shard 0 is built with the configured seed and options verbatim;
// shards k>0 derive their device seeds through runner.DeriveSeed, the
// same pure derivation the parallel experiment engine uses for its
// workers.
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

// shardOf places a tenant whose window starts at base on one of shards
// engines: min(base / ceil(logical/shards), shards-1). Placement is
// deterministic and non-decreasing in base, so tenants striped evenly
// over the device land one stripe per shard.
func shardOf(base, logical uint64, shards int) int {
	per := max((logical+uint64(shards)-1)/uint64(shards), 1)
	return int(min(base/per, uint64(shards-1)))
}

// engineShard is one independent engine: a full device behind its own
// bounded op channel and simulated clock.
type engineShard struct {
	id     int
	srv    *Server
	runner *core.Runner

	ops        chan *op
	engineDone chan struct{}

	// Engine goroutine only. stale marks a device change /metrics must
	// show before the next MetricsEvery refresh.
	simNow  time.Duration
	opCount int64
	stale   bool

	// Published for /metrics under Server.mu; only this shard's engine
	// writes them. ring holds the admitted latencies, simTime the clock
	// as of the last admitted op, device the last Finish snapshot, and
	// crashed whether the device is down awaiting restart.
	ring    *latencyRing
	simTime time.Duration
	device  core.Metrics
	crashed bool
}

// shardOptions returns the runner options of shard id. Shard 0 is
// built with the configured seed; other shards derive their device seed
// from the master seed and the shard key.
func shardOptions(id int, cfg Config) core.Options {
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
	return opts
}

// newEngineShard builds shard id's runner and preloads the windows of
// the tenants placed on it.
func newEngineShard(id int, cfg Config, owned []trace.TenantSpec) (*engineShard, error) {
	r, err := core.NewRunner(shardOptions(id, cfg))
	if err != nil {
		return nil, err
	}
	if err := r.Prepare(nil, trace.WindowEnd(owned)); err != nil {
		return nil, err
	}
	return &engineShard{
		id:     id,
		runner: r,
		// The channel holds every admissible op of this shard's tenants
		// plus the drain sentinel, so a send under the server mutex never
		// blocks. A shard with no tenant still takes the sentinel.
		ops:        make(chan *op, len(owned)*cfg.MaxQueue+1),
		engineDone: make(chan struct{}),
		ring:       newLatencyRing(DefaultRingSize),
		// A first snapshot, so /metrics merges this shard from the start.
		device: r.Finish("serve"),
	}, nil
}

// engine is the goroutine that owns this shard's device and simulated
// clock. It takes Server.mu once per op, to settle the op's outcome.
func (e *engineShard) engine() {
	s := e.srv
	defer close(e.engineDone)
	for o := range e.ops {
		if o.sentinel {
			// Refresh this shard's telemetry so the final snapshot merges
			// fresh numbers, then exit; Shutdown composes and writes the
			// snapshot once every shard has drained.
			m := e.runner.Finish("serve")
			s.mu.Lock()
			e.device = m
			s.mu.Unlock()
			return
		}
		t := s.tenants[o.tenant]
		res := e.process(t, o)
		// Refresh the cached device telemetry on a fixed op cadence
		// regardless of outcome — a fully-shedding or degraded shard
		// must still report fresh /metrics and /healthz — and at once
		// after an op that changed the device's state.
		refresh := e.stale || e.opCount%int64(s.cfg.MetricsEvery) == 0
		var m core.Metrics
		if refresh {
			m = e.runner.Finish("serve")
			e.stale = false
		}
		s.mu.Lock()
		t.queued--
		e.settle(t, o, &res)
		if refresh {
			e.device = m
		}
		s.mu.Unlock()
		o.reply <- res
	}
}

// settle counts o's outcome, once, against its tenant and this shard,
// and hands a successful write its ack sequence. Caller holds
// Server.mu.
func (e *engineShard) settle(t *tenant, o *op, res *opResult) {
	switch res.code {
	case "":
		t.admitted++
		t.ring.add(res.latency.Seconds())
		e.ring.add(res.latency.Seconds())
		e.simTime = e.simNow
		if o.write {
			t.ackSeq++
			res.seq = t.ackSeq
			t.writes++
		} else {
			t.reads++
		}
	case CodeShed:
		t.shed++
	case CodeDeadline:
		t.deadline++
	case CodeReadOnly:
		t.readOnly++
	case CodePowerLoss:
		t.powerLoss++
		e.crashed = e.runner.Device().Crashed()
	default: // internal, write_failed
		e.srv.internalErrors++
	}
}

// process runs one op through admission control and, if it survives,
// this shard's device. Engine goroutine only.
func (e *engineShard) process(t *tenant, o *op) opResult {
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

	// Token bucket on this shard's simulated clock.
	if s.cfg.Rate > 0 {
		t.tokens += s.cfg.Rate * (arrival - t.lastRefill).Seconds()
		if t.tokens > s.cfg.Burst {
			t.tokens = s.cfg.Burst
		}
		t.lastRefill = arrival
		if t.tokens < 1 {
			wait := time.Duration((1 - t.tokens) / s.cfg.Rate * float64(time.Second))
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
		return opResult{
			status: 504, code: CodeDeadline,
			message: fmt.Sprintf("queue wait %v exceeds deadline %v", wait, deadline),
		}
	}

	// Degraded device: reads keep flowing, writes fail typed before
	// they reach the device. The latch may have tripped inside an
	// earlier op's GC; the first refusal publishes it.
	if o.write && e.runner.Device().Degraded() {
		e.stale = !e.device.Degraded
		return opResult{status: 503, code: CodeReadOnly, message: "device degraded: read-only mode"}
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
			return e.handlePowerLoss()
		}
		res := opResult{status: 500, code: CodeInternal, message: err.Error()}
		var we *core.WriteError
		if o.write && ftl.WriteRefused(err) && errors.As(err, &we) {
			e.stale = true
			switch {
			case we.Stored > 0:
				// Some pages are remapped already, so this is no clean
				// refusal: the write fails unacked.
				res.message = fmt.Sprintf("%s: %d of %d pages written", res.message, we.Stored, o.pages)
			case e.runner.Device().Degraded():
				// No page went through, so the write's old mapping
				// survives: a refusal like every later write's, naming
				// what ended the write life.
				res.status, res.code = 503, CodeReadOnly
			default:
				// Nothing stored on a device that still takes writes.
				res.status, res.code = 503, CodeWriteFailed
			}
		}
		return res
	}
	t.window.Complete(done)
	return opResult{status: 200, latency: done - arrival}
}

// handlePowerLoss settles an op that died in a crash of this shard:
// the op is never acknowledged, and with AutoRestart the shard's
// device is recovered in place before its next op runs. Other shards
// keep serving throughout — their acked writes are never at risk.
func (e *engineShard) handlePowerLoss() opResult {
	s := e.srv
	msg := "power loss: request not acknowledged"
	if s.cfg.AutoRestart {
		if _, err := e.runner.Device().Restart(e.simNow); err == nil {
			msg += "; device recovered, retry"
			// Recovery charged every channel; in-sim time moved on.
			e.simNow = max(e.simNow, e.runner.Device().Now())
			// This shard's tenants' outstanding windows died with the
			// queues; other shards' windows are untouched.
			for _, t := range s.tenants {
				if t.shard == e {
					t.window.Reset()
				}
			}
		}
	}
	e.stale = true
	return opResult{
		status: 503, code: CodePowerLoss, message: msg,
		retryAfter: s.cfg.SimGap * 16,
	}
}
