package core

import (
	"context"
	"errors"
	"testing"
)

// countdownCtx is a context whose Err becomes non-nil after n calls —
// a deterministic stand-in for "cancelled mid-flight" that needs no
// goroutines or timers. Done is never closed; Replay polls Err before
// the first request and every replayPoll requests after it.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// TestStepBatchCtxCancelsMidFlight is the satellite regression test:
// cancellation must stop the replay loop between requests, not
// only between runner.Map shards.
func TestStepBatchCtxCancelsMidFlight(t *testing.T) {
	reqs, _ := tenantTestStream(t)
	r, err := NewRunner(DefaultOptions(Baseline, 6000))
	if err != nil {
		t.Fatal(err)
	}
	const polls = 2 // the third poll, before request 2*replayPoll, cancels
	admit := polls * replayPoll
	if len(reqs) <= admit {
		t.Fatalf("stream of %d requests ends before the cancelling poll", len(reqs))
	}
	ctx := &countdownCtx{Context: context.Background(), remaining: polls}
	_, err = r.Replay(ctx, "cancelled", reqs, 4096, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay returned %v, want context.Canceled", err)
	}
	// Device counters are per page; the countdown is per poll, so the
	// served-page total must stay within the first admit requests' pages.
	var pageBound int64
	for _, req := range reqs[:admit] {
		pageBound += int64(req.Pages)
	}
	res := r.Device().Results()
	if got := res.Reads + res.FTL.UserPrograms + res.WritesRejected + res.WriteFailures; got > pageBound {
		t.Fatalf("replay served %d pages after cancellation at request %d (page bound %d)", got, admit, pageBound)
	}
	if res.Reads+res.FTL.UserPrograms == 0 {
		t.Fatal("replay stopped before serving anything; wanted a mid-flight stop")
	}
	// The partial run still finishes into a consistent metric set.
	m := r.Finish("cancelled")
	if m.Reads != res.Reads {
		t.Fatalf("Finish reads %d != device reads %d", m.Reads, res.Reads)
	}
}

// progressCtx cancels itself once the runner's device has served
// the pages of the first at requests: a cancel that lands mid-replay,
// between two of Replay's polls.
type progressCtx struct {
	context.Context
	cancel func()
	r      *Runner
	pages  int64
}

// served is the page total the device has answered or refused.
func served(r *Runner) int64 {
	res := r.Device().Results()
	return res.Reads + res.FTL.UserPrograms + res.WritesRejected + res.WriteFailures
}

func (c *progressCtx) Err() error {
	if served(c.r) >= c.pages {
		c.cancel()
	}
	return c.Context.Err()
}

// TestReplayCancelStopsWithinPoll: a context cancelled mid-replay stops
// the replay within replayPoll further requests, and Replay returns
// the context's error.
func TestReplayCancelStopsWithinPoll(t *testing.T) {
	reqs, _ := tenantTestStream(t)
	pagesOf := func(n int) int64 {
		var p int64
		for _, req := range reqs[:n] {
			p += int64(req.Pages)
		}
		return p
	}
	for _, at := range []int{1, 300, replayPoll, 1000} {
		for _, qd := range []int{0, 4} {
			r, err := NewRunner(DefaultOptions(Baseline, 6000))
			if err != nil {
				t.Fatal(err)
			}
			inner, cancel := context.WithCancel(context.Background())
			ctx := &progressCtx{Context: inner, cancel: cancel, r: r, pages: pagesOf(at)}
			_, err = r.Replay(ctx, "cancelled", reqs, 4096, qd)
			cancel()
			if !errors.Is(err, context.Canceled) || err != ctx.Err() {
				t.Fatalf("cancel at request %d qd %d: Replay returned %v, want the context's error", at, qd, err)
			}
			if got, bound := served(r), pagesOf(min(at+replayPoll, len(reqs))); got > bound {
				t.Fatalf("cancel at request %d qd %d: served %d pages, more than the %d of the next %d requests",
					at, qd, got, bound, replayPoll)
			}
		}
	}
}

// TestStepBatchCtxPreCancelled: an already-dead context stops the loop
// before any request is issued.
func TestStepBatchCtxPreCancelled(t *testing.T) {
	reqs, _ := tenantTestStream(t)
	r, err := NewRunner(DefaultOptions(Baseline, 6000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Replay(ctx, "pre-cancelled", reqs, 4096, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled replay returned %v", err)
	}
	if res := r.Device().Results(); res.Reads+res.FTL.UserPrograms != 0 {
		t.Fatalf("pre-cancelled replay served %d requests", res.Reads+res.FTL.UserPrograms)
	}
}

// TestStepBatchCtxNilMatchesLegacy: a nil context, the no-cancellation
// form callers without a context pass, replays identically to a live
// context that never cancels.
func TestStepBatchCtxNilMatchesLegacy(t *testing.T) {
	reqs, _ := tenantTestStream(t)
	run := func(ctx context.Context) Metrics {
		r, err := NewRunner(DefaultOptions(Baseline, 6000))
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Replay(ctx, "legacy", reqs, 4096, 4)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(nil), run(context.Background())
	if a.AvgResponse != b.AvgResponse || a.Reads != b.Reads || a.P99Read != b.P99Read {
		t.Fatalf("nil-ctx and Background replays diverge: %+v vs %+v", a, b)
	}
}
