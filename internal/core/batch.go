// The replay engine. Runner.Replay runs one request stream through the
// device in one of two host models. With qd < 1 it is an open-loop host
// with unbounded queue depth: every request is issued at its recorded
// arrival and the device's per-channel FIFOs absorb contention. With
// qd >= 1 it models an NCQ-style host that keeps at most qd requests
// outstanding: a request is submitted at the later of its arrival and
// the moment a queue slot frees, where slots free in deterministic
// completion order (earliest completion first). The completion window is
// the host's own Window; the device has one read path for both models.
//
// Device calls always happen in submission order — the stream order —
// so replay is deterministic by construction and produces bit-identical
// results for any host parallelism; only the submit times differ
// between the two host models.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"flexlevel/internal/ftl"
	"flexlevel/internal/trace"
)

// Window is a host's queue-depth window: the completion times of at
// most qd outstanding requests, sorted. A request is submitted at the
// later of its arrival and, when the window is full, the earliest
// outstanding completion, whose slot it then takes. Only completion
// times are ever read, so equal times need no tie-break. Replay at
// qd >= 1 drives one over a trace; the serve daemon keeps one per
// tenant.
//
// For nondecreasing arrivals this pop-when-full rule gives the same
// submit times as eagerly dropping every completion ≤ arrival: such a
// completion can only ever yield "submit at arrival", under either
// rule.
type Window struct {
	qd   int
	done []time.Duration // ascending
}

// NewWindow returns an empty window of depth qd (qd < 1 means 1).
func NewWindow(qd int) *Window {
	if qd < 1 {
		qd = 1
	}
	return &Window{qd: qd, done: make([]time.Duration, 0, qd)}
}

// Submit returns the submit time of a request arriving at arrival. It
// leaves the window unchanged, so a caller may still reject the request
// on its projected wait (submit − arrival) without taking a slot.
func (w *Window) Submit(arrival time.Duration) time.Duration {
	if len(w.done) >= w.qd && w.done[0] > arrival {
		return w.done[0]
	}
	return arrival
}

// Complete records a submitted request's completion time. When the
// window is full the request took the earliest slot, which is freed.
func (w *Window) Complete(done time.Duration) {
	d := w.done
	if len(d) >= w.qd {
		d = d[:copy(d, d[1:])]
	}
	i := len(d)
	for i > 0 && d[i-1] > done {
		i--
	}
	d = append(d, 0)
	copy(d[i+1:], d[i:])
	d[i] = done
	w.done = d
}

// Reset empties the window: its requests died with the device's queues
// in a crash.
func (w *Window) Reset() { w.done = w.done[:0] }

// replayPoll is how many requests Replay steps between context checks:
// ctx.Err takes a lock, and a request steps in about a microsecond.
const replayPoll = 256

// Replay preconditions the device for reqs (Prepare), replays them, and
// returns the metrics (Finish). workingSet is the number of logical
// pages to precondition; pass 0 to derive it from the largest page the
// stream touches. With qd < 1 every request is submitted at its recorded
// arrival, exactly as a Prepare/Step/Finish loop does. With qd >= 1 at
// most qd requests are in flight: each is submitted at the later of its
// arrival and the completion of the request whose slot it takes, so
// qd == 1 serializes requests back-to-back (closed loop at depth 1). A
// write the device dropped (ftl.WriteRefused) is counted in the metrics
// and the replay goes on.
//
// The loop checks ctx before the first request and then before every
// replayPoll-th, so a deadline, SIGINT or server drain stops a replay
// within replayPoll requests instead of only between runner.Map shards.
// On cancellation the context's error is returned and the device keeps
// the requests replayed so far (Finish still yields a consistent partial
// metric set). reqs is only read. A nil ctx never cancels.
func (r *Runner) Replay(ctx context.Context, name string, reqs []trace.Request, workingSet uint64, qd int) (Metrics, error) {
	if err := r.Prepare(reqs, workingSet); err != nil {
		return Metrics{}, err
	}
	var w *Window
	if qd >= 1 {
		w = NewWindow(qd)
	}
	for i, req := range reqs {
		if ctx != nil && i%replayPoll == 0 {
			if err := ctx.Err(); err != nil {
				return Metrics{}, err
			}
		}
		at := req.Arrival
		if w != nil {
			at = w.Submit(at)
		}
		done, err := r.StepAt(req, at)
		if err != nil && !ftl.WriteRefused(err) {
			return Metrics{}, err
		}
		if w != nil {
			w.Complete(done)
		}
	}
	return r.Finish(name), nil
}

// StepAt replays one request submitted at time at — which under
// queue-depth batching or a live server's admission queue may be later
// than its recorded arrival — and returns the completion time of the
// request's last page. Pages of one request are issued together at the
// submit time; same-channel pages serialize in the device's FIFO, so the
// request completes when its slowest page does. A write page the device
// dropped (ftl.WriteRefused) does not stop the request: the later pages
// are still issued, and StepAt returns the completion time with a
// *WriteError for the first dropped page. Any other failed write page
// stops the request with a *WriteError. It is the single-request
// surface of Replay, exported for drivers that compute submit times
// themselves (per-tenant queue-depth windows in the serve daemon).
func (r *Runner) StepAt(req trace.Request, at time.Duration) (time.Duration, error) {
	if r.device.Crashed() {
		return 0, ftl.ErrPowerLoss
	}
	if r.unsized != nil {
		r.sizeReadSample()
	}
	done := at
	var dropped *WriteError
	stored := 0
	for p := 0; p < req.Pages; p++ {
		lpn := req.LPN + uint64(p)
		if lpn >= r.opts.SSD.FTL.LogicalPages {
			lpn %= r.opts.SSD.FTL.LogicalPages
		}
		var resp time.Duration
		if req.Op == trace.Read {
			var err error
			if resp, err = r.read(at, lpn); err != nil {
				return done, err
			}
			if r.device.Crashed() {
				return done, ftl.ErrPowerLoss
			}
		} else {
			var err error
			if resp, err = r.device.Write(at, lpn, r.writeState(lpn)); err == nil {
				stored++
			} else if errors.Is(err, ftl.ErrPowerLoss) {
				return done, err
			} else {
				werr := &WriteError{Stored: stored, err: fmt.Errorf("core: %s write lpn %d: %w", r.opts.System, lpn, err)}
				if !ftl.WriteRefused(err) {
					return done, werr
				}
				if dropped == nil {
					dropped = werr
				}
			}
		}
		if end := at + resp; end > done {
			done = end
		}
	}
	if r.tenants != nil {
		r.observeTenant(req, at, done)
	}
	if dropped != nil {
		dropped.Stored = stored
		return done, dropped
	}
	return done, nil
}

// WriteError is StepAt's error for a write request some page of which
// was not stored. Stored counts the request's pages that were programmed
// and remapped: with Stored 0 the request changed nothing.
type WriteError struct {
	Stored int
	err    error
}

func (e *WriteError) Error() string { return e.err.Error() }
func (e *WriteError) Unwrap() error { return e.err }
