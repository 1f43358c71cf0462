package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flexlevel/internal/fault"
	"flexlevel/internal/ftl"
	"flexlevel/internal/trace"
)

func TestRunRequestsFromMSRTrace(t *testing.T) {
	// End-to-end: parse an MSR-format snippet and replay it.
	const msr = `128166372003061629,vol,0,Read,32768,16384,100
128166372004061629,vol,0,Write,65536,32768,100
128166372005061629,vol,0,Read,32768,16384,100
128166372006061629,vol,0,Read,98304,16384,100
`
	reqs, err := trace.ReadMSR(strings.NewReader(msr), 2048)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(fastOptions(LDPCInSSD, 5000))
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Replay(nil, "msr-snippet", reqs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgResponse <= 0 {
		t.Error("no response time measured")
	}
	if m.UserWrites != 2 { // the 32KB write spans 2 pages
		t.Errorf("UserWrites = %d, want 2", m.UserWrites)
	}
	if m.Workload != "msr-snippet" {
		t.Errorf("workload label %q", m.Workload)
	}
}

func TestRunRequestsDerivesWorkingSet(t *testing.T) {
	reqs := []trace.Request{
		{Op: trace.Write, LPN: 100, Pages: 2},
		{Op: trace.Read, LPN: 101, Pages: 1},
	}
	r, err := NewRunner(fastOptions(Baseline, 4000))
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Replay(nil, "tiny", reqs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Working set derived as 102: preload must cover the read.
	if m.UserWrites != 2 {
		t.Errorf("UserWrites = %d, want 2", m.UserWrites)
	}
	if !r.Device().FTL().Mapped(101) {
		t.Error("derived working set did not cover lpn 101")
	}
}

func TestRunRequestsP99(t *testing.T) {
	w := fastWorkload("web-2", t)
	r, err := NewRunner(fastOptions(LDPCInSSD, 6000))
	if err != nil {
		t.Fatal(err)
	}
	m, err := replayWorkload(r, w)
	if err != nil {
		t.Fatal(err)
	}
	if m.P99Read < m.AvgRead {
		t.Errorf("p99 read %g below mean %g", m.P99Read, m.AvgRead)
	}
}

// TestReplayMatchesStepLoops checks Replay against the two loops it
// replaces, for all four systems over randomly seeded streams on a
// two-channel device, each both at its recorded arrivals and closed
// loop: at qd 0 against a Prepare/Step/Finish loop, and at qd 4 against
// a test-local copy of the old StepBatch loop. The metric sets must
// print identically. 8000 fin-2 requests give FlexLevel enough read
// history to migrate.
func TestReplayMatchesStepLoops(t *testing.T) {
	stepBatch := func(r *Runner, reqs []trace.Request, qd int) error {
		w := NewWindow(qd)
		for _, req := range reqs {
			done, err := r.StepAt(req, w.Submit(req.Arrival))
			if err != nil {
				return err
			}
			w.Complete(done)
		}
		return nil
	}
	rng := rand.New(rand.NewSource(66))
	migrated := false
	for _, tc := range []struct {
		name     string
		requests int
	}{{"fin-2", 8000}, {"web-1", 2500}} {
		seed := rng.Int63n(1000)
		w, err := trace.ByName(tc.name, tc.requests, 4096, seed)
		if err != nil {
			t.Fatal(err)
		}
		open, err := w.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, reqs := range [][]trace.Request{open, trace.CloseLoop(open)} {
			for _, sys := range Systems() {
				for _, qd := range []int{0, 4} {
					opts := fastOptions(sys, 6000)
					opts.SSD.Channels = 2
					runner := func() *Runner {
						r, err := NewRunner(opts)
						if err != nil {
							t.Fatal(err)
						}
						return r
					}
					got, err := runner().Replay(nil, w.Name, reqs, w.WorkingSet, qd)
					if err != nil {
						t.Fatal(err)
					}
					ref := runner()
					if err := ref.Prepare(reqs, w.WorkingSet); err != nil {
						t.Fatal(err)
					}
					if qd == 0 {
						for _, req := range reqs {
							if err := ref.Step(req); err != nil {
								t.Fatal(err)
							}
						}
					} else if err := stepBatch(ref, reqs, qd); err != nil {
						t.Fatal(err)
					}
					want := ref.Finish(w.Name)
					if g, x := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != x {
						t.Errorf("%s seed %d %v qd %d: Replay diverges from the step loop\n got: %s\nwant: %s",
							tc.name, seed, sys, qd, g, x)
					}
					migrated = migrated || got.Migrations > 0
				}
			}
		}
	}
	if !migrated {
		t.Error("no FlexLevel run migrated; the streams miss the AccessEval path")
	}
}

// TestReplayLeavesInputUnchanged: sweeps share one generated stream
// across cells, so replay must only read it. For all four systems, with
// and without injected faults, Replay at qd 0 and qd 8 and a
// Prepare/Step loop must leave the stream equal to a copy taken before.
func TestReplayLeavesInputUnchanged(t *testing.T) {
	w, err := trace.ByName("fin-2", 6000, 4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(reqs)
	for _, sys := range Systems() {
		for _, faulty := range []bool{false, true} {
			opts := fastOptions(sys, 6000)
			if faulty {
				opts.SSD.FTL.SpareBlocks = 8
				opts.SSD.Faults = fault.Config{
					Seed:    11,
					Program: fault.RateCurve{Base: 0.01},
					Read:    fault.RateCurve{Base: 0.001},
				}
			}
			runs := map[string]func(r *Runner) error{
				"replay qd 0": func(r *Runner) error { _, err := r.Replay(nil, w.Name, reqs, w.WorkingSet, 0); return err },
				"replay qd 8": func(r *Runner) error { _, err := r.Replay(nil, w.Name, reqs, w.WorkingSet, 8); return err },
				"step loop": func(r *Runner) error {
					if err := r.Prepare(reqs, w.WorkingSet); err != nil {
						return err
					}
					for _, req := range reqs {
						if err := r.Step(req); err != nil && !ftl.WriteRefused(err) {
							return err
						}
					}
					return nil
				},
			}
			for name, run := range runs {
				r, err := NewRunner(opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := run(r); err != nil {
					t.Fatalf("%v faults=%v %s: %v", sys, faulty, name, err)
				}
				if !slices.Equal(reqs, before) {
					t.Fatalf("%v faults=%v %s wrote its input stream", sys, faulty, name)
				}
			}
		}
	}
}
