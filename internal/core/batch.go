// The batched, queue-depth-aware replay engine. Runner.Step/RunRequests
// issue every request at its recorded arrival and let the device's
// per-channel FIFOs absorb contention — an open-loop host with
// unbounded queue depth. StepBatch instead models an NCQ-style host
// that keeps at most QD requests outstanding: a request is submitted at
// the later of its arrival and the moment a queue slot frees, where
// slots free in deterministic completion order (earliest completion
// first, ties broken by submission sequence). The completion window is
// the host's own heap; the device has one read path for both engines.
//
// Device calls still happen in submission order — the stream order —
// so the engine is deterministic by construction and produces
// bit-identical results for any host parallelism; only the submit
// times differ from the open-loop path.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"flexlevel/internal/ftl"
	"flexlevel/internal/trace"
)

// completion is one outstanding request in the host's queue window.
type completion struct {
	at  time.Duration
	seq uint64 // submission order; breaks equal-completion ties
}

func completionLess(a, b completion) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pushCompletion adds c to the min-heap in *h.
func pushCompletion(h *[]completion, c completion) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !completionLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// popCompletion removes and returns the earliest completion.
func popCompletion(h *[]completion) completion {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < n && completionLess(s[l], s[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && completionLess(s[r], s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// StepBatch replays reqs with up to qd requests in flight. Each request
// is submitted at the later of its arrival time and the completion of
// the request whose slot it takes; qd <= 1 serializes requests
// back-to-back (closed loop at depth 1). The usual Prepare/Finish
// bracket applies, as with Step.
//
// The event loop checks ctx before every request, so a deadline, SIGINT
// or server drain stops a batched replay mid-flight instead of only
// between runner.Map shards. On cancellation the context's error is
// returned and the device keeps the requests replayed so far (Finish
// still yields a consistent partial metric set). A nil ctx never
// cancels and adds no per-request cost beyond one pointer test.
func (r *Runner) StepBatch(ctx context.Context, reqs []trace.Request, qd int) error {
	if qd < 1 {
		qd = 1
	}
	pending := make([]completion, 0, qd)
	seq := uint64(0)
	for _, req := range reqs {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		submit := req.Arrival
		if len(pending) >= qd {
			// The window is full: this request waits for the earliest
			// outstanding completion.
			if c := popCompletion(&pending); c.at > submit {
				submit = c.at
			}
		}
		done, err := r.StepAt(req, submit)
		if err != nil {
			return err
		}
		seq++
		pushCompletion(&pending, completion{at: done, seq: seq})
	}
	return nil
}

// StepAt replays one request submitted at time at — which under
// queue-depth batching or a live server's admission queue may be later
// than its recorded arrival — and returns the completion time of the
// request's last page. Pages of one request are issued together at the
// submit time; same-channel pages serialize in the device's FIFO, so the
// request completes when its slowest page does. It is the single-request
// surface of the batched event loop, exported for drivers that compute
// submit times themselves (per-tenant queue-depth windows in the serve
// daemon).
func (r *Runner) StepAt(req trace.Request, at time.Duration) (time.Duration, error) {
	if r.device.Crashed() {
		return 0, ftl.ErrPowerLoss
	}
	done := at
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
			if resp, err = r.device.Write(at, lpn, r.writeState(lpn)); err != nil {
				if errors.Is(err, ftl.ErrPowerLoss) {
					return done, err
				}
				return done, fmt.Errorf("core: %s write lpn %d: %w", r.opts.System, lpn, err)
			}
		}
		if end := at + resp; end > done {
			done = end
		}
	}
	if r.tenants != nil {
		r.observeTenant(req, at, done)
	}
	return done, nil
}

// RunRequestsQD is RunRequests driven by the batched engine: it
// preconditions the device and replays the stream with up to qd
// requests outstanding. ctx cancels mid-replay as in StepBatch (nil
// never cancels); a cancelled replay returns the context's error, and
// the metrics of the completed prefix remain available through Finish.
func (r *Runner) RunRequestsQD(ctx context.Context, name string, reqs []trace.Request, workingSet uint64, qd int) (Metrics, error) {
	if err := r.Prepare(reqs, workingSet); err != nil {
		return Metrics{}, err
	}
	if err := r.StepBatch(ctx, reqs, qd); err != nil {
		return Metrics{}, err
	}
	return r.Finish(name), nil
}
