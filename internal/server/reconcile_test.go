package server

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"flexlevel/internal/core"
	"flexlevel/internal/trace"
)

// TestServeReconcilesWithReplay: serve and replay share core.Window and
// Runner.StepAt, so one tenant on one shard with no rate, SLO or
// deadline limit, driven by a sequential client, is Runner.Replay at the
// tenant's queue depth over the arrivals k·SimGap. The drained device
// metrics equal Replay's field for field, and every op's latency is its
// request's completion minus arrival in the window loop Replay runs
// (whose metrics this test also holds equal to Replay's). The gap is
// shorter than a multi-page soft-sensed read, so the window both fills
// and drains. The run reads more pages than the device's read reservoir
// keeps (DefaultSampleCap), so its percentiles also hold only if the
// telemetry refresh every MetricsEvery ops leaves the reservoir as it
// was.
func TestServeReconcilesWithReplay(t *testing.T) {
	const n, qd = 40000, 4
	tenants := []trace.TenantSpec{{Name: "solo", Weight: 1, Model: trace.SteadyModel,
		ReadRatio: 0.7, ZipfS: 1.2, Base: 0, WorkingSet: 1024, MeanPages: 1}}
	cfg := Config{System: core.FlexLevel, PE: 6000, Seed: 3, FTL: smallFTL(), Tenants: tenants,
		QueueDepth: qd, SimGap: 500 * time.Microsecond, MetricsEvery: 7}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	reqs := make([]trace.Request, n)
	latency := make([]time.Duration, n)
	for k := range reqs {
		o := &op{write: rng.Intn(10) < 3, lpn: uint64(rng.Intn(1000)), pages: 1 + rng.Intn(4)}
		res := s.do(context.Background(), o)
		if res.status != 200 {
			t.Fatalf("op %d: %d %s: %s", k, res.status, res.code, res.message)
		}
		latency[k] = res.latency
		reqs[k] = trace.Request{Arrival: time.Duration(k) * cfg.SimGap, Op: trace.Read, LPN: o.lpn, Pages: o.pages}
		if o.write {
			reqs[k].Op = trace.Write
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	snap, ok := s.FinalSnapshot()
	if !ok {
		t.Fatal("no final snapshot after drain")
	}

	newRunner := func() *core.Runner {
		r, err := core.NewRunner(shardOptions(0, cfg.withDefaults()))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want, err := newRunner().Replay(nil, "serve", reqs, trace.WindowEnd(tenants), qd)
	if err != nil {
		t.Fatal(err)
	}
	if want.Reads <= DefaultSampleCap {
		t.Fatalf("%d page reads fit the %d-slot reservoir; no slot was ever replaced", want.Reads, DefaultSampleCap)
	}
	if !reflect.DeepEqual(snap.Device, want) {
		t.Errorf("drained serve device differs from Replay at qd %d:\n%+v\n%+v", qd, snap.Device, want)
	}

	loop := newRunner()
	if err := loop.Prepare(nil, trace.WindowEnd(tenants)); err != nil {
		t.Fatal(err)
	}
	w := core.NewWindow(qd)
	queued := 0
	for k, req := range reqs {
		at := w.Submit(req.Arrival)
		if at > req.Arrival {
			queued++
		}
		done, err := loop.StepAt(req, at)
		if err != nil {
			t.Fatal(err)
		}
		w.Complete(done)
		if got := done - req.Arrival; latency[k] != got {
			t.Fatalf("op %d: serve latency %v, replay completion - arrival %v", k, latency[k], got)
		}
	}
	if m := loop.Finish("serve"); !reflect.DeepEqual(m, want) {
		t.Errorf("window loop differs from Replay:\n%+v\n%+v", m, want)
	}
	if queued == 0 || queued == n {
		t.Errorf("%d of %d requests waited for a slot; want some, not all", queued, n)
	}
}
