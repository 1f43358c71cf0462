package ftl

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"flexlevel/internal/fault"
)

// crashConfig is the geometry the crash-point tests run on: small
// enough that exhaustive per-media-op injection stays cheap, with
// spares so retirement paths are crossed, and aggressive journal
// cadences so crash points land inside flushes and checkpoints.
func crashConfig() Config {
	c := smallConfig()
	c.Blocks = 46
	c.SpareBlocks = 2
	c.Journal = JournalConfig{Enabled: true, FlushRecords: 8, CheckpointEveryFlushes: 3}
	return c
}

// baseScript injects a program failure, an erase failure and a grown
// bad block at fixed per-class check indexes, so the trace crosses
// retirement and relocation while crash points sweep over it.
func baseScript() []fault.ScriptEvent {
	return []fault.ScriptEvent{
		{Op: fault.Erase, Index: 4},
		{Op: fault.Grown, Index: 11},
		{Op: fault.Program, Index: 130},
		{Op: fault.Program, Index: 260},
	}
}

// crashTraceOps sizes the scripted workload: long enough to wrap the
// logical space, trigger GC and every scripted fault.
const crashTraceOps = 1200

type wop struct {
	migrate bool // a migration of a mapped lpn; otherwise a write
	lpn     uint64
	state   BlockState
}

// crashTrace is the deterministic workload: writes across both pools,
// overwrites and migrations.
func crashTrace(n int, logical int) []wop {
	rng := rand.New(rand.NewSource(42))
	ops := make([]wop, 0, n)
	for i := 0; i < n; i++ {
		lpn := uint64(rng.Intn(logical))
		if rng.Intn(9) < 7 {
			st := NormalState
			if rng.Intn(4) == 0 {
				st = ReducedState
			}
			ops = append(ops, wop{lpn: lpn, state: st})
			continue
		}
		st := NormalState
		if rng.Intn(2) == 0 {
			st = ReducedState
		}
		ops = append(ops, wop{migrate: true, lpn: lpn, state: st})
	}
	return ops
}

// traceOracle is the durable state the trace driver promises: for every
// acked operation, whether the lpn must be mapped after recovery. The
// lpn of the operation in flight when power died is either "loose" or
// must stay mapped. A torn first write of an lpn is loose: it may
// recover to either side of the cut. A torn overwrite of an acked lpn
// or a torn migration must stay mapped: the page holding the previous
// acknowledged version is never destroyed before the new one lands.
type traceOracle struct {
	mapped   map[uint64]bool
	loose    map[uint64]bool
	mustMap  map[uint64]bool
	finished bool // the trace completed without power loss
	// metaPrograms sums the metadata-page programs the ops charged.
	metaPrograms int
}

// runCrashTrace drives ops against f until the trace ends or power
// dies, maintaining the acked-state oracle.
func runCrashTrace(t *testing.T, f *FTL, ops []wop) traceOracle {
	t.Helper()
	o := traceOracle{mapped: map[uint64]bool{}, loose: map[uint64]bool{}, mustMap: map[uint64]bool{}}
	for _, op := range ops {
		switch {
		case !op.migrate:
			_, wops, err := f.Write(op.lpn, op.state)
			o.metaPrograms += wops.MetaPrograms
			if err != nil {
				if errors.Is(err, ErrPowerLoss) {
					if o.mapped[op.lpn] {
						o.mustMap[op.lpn] = true
					} else {
						o.loose[op.lpn] = true
					}
					return o
				}
				t.Fatalf("write lpn %d: %v", op.lpn, err)
			}
			o.mapped[op.lpn] = true
		case f.Mapped(op.lpn):
			_, mops, err := f.Migrate(op.lpn, op.state)
			o.metaPrograms += mops.MetaPrograms
			if err != nil {
				if errors.Is(err, ErrPowerLoss) {
					o.loose[op.lpn] = true
					o.mustMap[op.lpn] = true
					return o
				}
				t.Fatalf("migrate lpn %d: %v", op.lpn, err)
			}
		}
		if f.dead {
			// The op was acknowledged but a GC power cut followed.
			return o
		}
	}
	o.finished = true
	return o
}

// verifyRecovered checks the crash-consistency contract of a recovered
// FTL against the oracle: acked state intact, every mapping
// OOB-consistent, structural invariants hold.
func verifyRecovered(t *testing.T, rf *FTL, o traceOracle) {
	t.Helper()
	checkInvariants(t, rf)
	m := rf.Media()
	for lpn, want := range o.mapped {
		if o.loose[lpn] {
			continue
		}
		if got := rf.Mapped(lpn); got != want {
			t.Fatalf("acked lpn %d: recovered mapped=%v, want %v", lpn, got, want)
		}
	}
	for lpn := range o.mustMap {
		if !rf.Mapped(lpn) {
			t.Fatalf("torn overwrite or migration lost lpn %d: its previous page must survive", lpn)
		}
	}
	for lpn := uint64(0); lpn < rf.cfg.LogicalPages; lpn++ {
		ppn, state, ok := rf.Lookup(lpn)
		if !ok {
			continue
		}
		oob := m.PageOOB(ppn)
		if !oob.Written || !oob.Valid {
			t.Fatalf("lpn %d recovered to ppn %d with torn/erased OOB %+v", lpn, ppn, oob)
		}
		if oob.LPN != lpn {
			t.Fatalf("lpn %d recovered to ppn %d whose OOB names lpn %d", lpn, ppn, oob.LPN)
		}
		if oob.State != state {
			t.Fatalf("lpn %d: block state %v disagrees with OOB state %v", lpn, state, oob.State)
		}
	}
}

// countMediaOps runs the trace with no power cut and returns how many
// physical media operations it performs — the crash-point space. The
// run must collect garbage and fire every scripted fault, so the crash
// points cover those paths.
func countMediaOps(t *testing.T, cfg Config, ops []wop) int64 {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{Script: baseScript()})
	if err != nil {
		t.Fatal(err)
	}
	var fired int64
	f.Fault = func(op fault.Op, block, pe int) bool {
		hit := inj.Fails(op, block, pe)
		if hit {
			fired++
		}
		return hit
	}
	o := runCrashTrace(t, f, ops)
	if !o.finished {
		t.Fatal("fault-free trace did not finish")
	}
	if gc := f.Stats().Erases; fired != int64(len(baseScript())) || gc == 0 {
		t.Fatalf("trace fired %d of %d scripted faults and ran GC %d times", fired, len(baseScript()), gc)
	}
	return f.MediaOps()
}

// TestRecoverExhaustiveCrashPoints is the tentpole property test: for
// EVERY physical media operation in the scripted workload, cut power
// during exactly that operation, recover, and verify zero acked loss,
// OOB consistency and recovery idempotence.
func TestRecoverExhaustiveCrashPoints(t *testing.T) {
	cfg := crashConfig()
	ops := crashTrace(crashTraceOps, int(cfg.LogicalPages))
	total := countMediaOps(t, cfg, ops)
	if total < 500 {
		t.Fatalf("trace too small to be interesting: %d media ops", total)
	}
	step := int64(1)
	if testing.Short() {
		step = 7
	}
	for n := int64(0); n < total; n += step {
		checkCrashPoint(t, cfg, ops, n)
	}
}

// TestRecoverCrashPointsMidRewrite runs, in every mode, each crash
// point that lands in a journal flush or checkpoint programmed while a
// rewrite is in flight, or later in that same rewrite. A checkpoint
// taken there must still map the moving lpn to its old page; -short's
// stride through the exhaustive test can step over all of them.
func TestRecoverCrashPointsMidRewrite(t *testing.T) {
	cfg := crashConfig()
	ops := crashTrace(crashTraceOps, int(cfg.LogicalPages))
	points := midRewriteCrashPoints(t, cfg, ops)
	if len(points) == 0 {
		t.Fatal("no journal flush or checkpoint ran inside a rewrite; the trace misses the window")
	}
	for _, n := range points {
		checkCrashPoint(t, cfg, ops, n)
	}
}

// midRewriteCrashPoints runs the trace without a power cut and returns
// the crash points (PowerLoss check indexes) from each metadata program
// — a journal flush or a checkpoint page — issued while a rewrite is in
// flight, through the last media op of that rewrite.
func midRewriteCrashPoints(t *testing.T, cfg Config, ops []wop) []int64 {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{Script: baseScript()})
	if err != nil {
		t.Fatal(err)
	}
	var points []int64
	var window *movingPage // the outermost rewrite a metadata program landed in
	f.Fault = func(op fault.Op, block, pe int) bool {
		if op == fault.PowerLoss {
			switch {
			case len(f.moving) == 0 || window != nil && *window != f.moving[0]:
				window = nil
			case block < 0 && window == nil:
				outer := f.moving[0]
				window = &outer
			}
			if window != nil {
				points = append(points, f.MediaOps()-1)
			}
		}
		return inj.Fails(op, block, pe)
	}
	if o := runCrashTrace(t, f, ops); !o.finished {
		t.Fatal("fault-free trace did not finish")
	}
	return points
}

// checkCrashPoint cuts power during media operation n of the trace,
// recovers, and verifies zero acked loss, OOB consistency, recovery
// idempotence and that the recovered device keeps working.
func checkCrashPoint(t *testing.T, cfg Config, ops []wop, n int64) {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{
		Script: append(baseScript(), fault.ScriptEvent{Op: fault.PowerLoss, Index: n}),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Fault = inj.Fails
	o := runCrashTrace(t, f, ops)
	if o.finished {
		t.Fatalf("crash point %d: trace finished without dying", n)
	}
	if !f.dead {
		t.Fatalf("crash point %d: FTL not dead after power loss", n)
	}
	if _, _, err := f.Write(0, NormalState); !errors.Is(err, ErrPowerLoss) {
		t.Fatalf("crash point %d: dead FTL accepted a write: %v", n, err)
	}

	rf, rep, err := Recover(cfg, f.Media(), nil)
	if err != nil {
		t.Fatalf("crash point %d: recover: %v", n, err)
	}
	if rep.TotalReads() == 0 {
		t.Fatalf("crash point %d: recovery read nothing", n)
	}
	verifyRecovered(t, rf, o)

	// Idempotence: recovering the recovered image changes nothing.
	rf2, _, err := Recover(cfg, rf.Media().Clone(), nil)
	if err != nil {
		t.Fatalf("crash point %d: second recover: %v", n, err)
	}
	if !bytes.Equal(rf.EncodeState(), rf2.EncodeState()) {
		t.Fatalf("crash point %d: double recovery diverged", n)
	}

	// The recovered device keeps working.
	for i := uint64(0); i < 8; i++ {
		if _, _, err := rf.Write(i, NormalState); err != nil && !errors.Is(err, ErrDegraded) {
			t.Fatalf("crash point %d: post-recovery write: %v", n, err)
		}
	}
	checkInvariants(t, rf)
}

// TestRecoverCrashDuringRecovery injects a second power cut into the
// metadata programs Recover itself performs: the surviving image must
// still recover, to the exact same state a clean recovery produces.
func TestRecoverCrashDuringRecovery(t *testing.T) {
	cfg := crashConfig()
	ops := crashTrace(crashTraceOps, int(cfg.LogicalPages))
	total := countMediaOps(t, cfg, ops)
	for n := int64(3); n < total; n += 29 {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := fault.New(fault.Config{
			Script: append(baseScript(), fault.ScriptEvent{Op: fault.PowerLoss, Index: n}),
		})
		if err != nil {
			t.Fatal(err)
		}
		f.Fault = inj.Fails
		o := runCrashTrace(t, f, ops)

		// Reference: a clean recovery of the crashed image.
		ref, _, err := Recover(cfg, f.Media().Clone(), nil)
		if err != nil {
			t.Fatalf("crash point %d: reference recover: %v", n, err)
		}

		// Crash the recovery at each of its own media operations, then
		// recover the doubly-crashed image cleanly.
		for m := int64(0); ; m++ {
			img := f.Media().Clone()
			rinj, err := fault.New(fault.Config{
				Script: []fault.ScriptEvent{{Op: fault.PowerLoss, Index: m}},
			})
			if err != nil {
				t.Fatal(err)
			}
			_, _, rerr := Recover(cfg, img, rinj.Fails)
			if rerr == nil {
				break // recovery performed fewer than m+1 media ops
			}
			if !errors.Is(rerr, ErrPowerLoss) {
				t.Fatalf("crash point %d/recovery op %d: %v", n, m, rerr)
			}
			rf, _, err := Recover(cfg, img, nil)
			if err != nil {
				t.Fatalf("crash point %d/recovery op %d: re-recover: %v", n, m, err)
			}
			verifyRecovered(t, rf, o)
			if !bytes.Equal(ref.EncodeState(), rf.EncodeState()) {
				t.Fatalf("crash point %d/recovery op %d: crash-during-recovery diverged from clean recovery", n, m)
			}
		}
	}
}

// TestRecoverCleanShutdown: recovering a device that never crashed
// reproduces its live state exactly — the journal + OOB carry the
// complete mapping history.
func TestRecoverCleanShutdown(t *testing.T) {
	cfg := crashConfig()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := crashTrace(crashTraceOps, int(cfg.LogicalPages))
	o := runCrashTrace(t, f, ops)
	if !o.finished {
		t.Fatal("trace did not finish")
	}
	if o.metaPrograms == 0 || f.Media().checkpoint == nil {
		t.Fatalf("journal not exercised: %d metadata programs, checkpoint written %v", o.metaPrograms, f.Media().checkpoint != nil)
	}
	rf, _, err := Recover(cfg, f.Media().Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	verifyRecovered(t, rf, o)
	if !bytes.Equal(f.EncodeState(), rf.EncodeState()) {
		t.Fatal("clean-shutdown recovery diverged from live state")
	}
}

// TestJournalDisabledIsInert: with the journal off, no metadata
// programs are charged and no media image exists — the FTL behaves
// exactly like the pre-journal implementation.
func TestJournalDisabledIsInert(t *testing.T) {
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		lpn := uint64(i % 512)
		if _, ops, err := f.Write(lpn, NormalState); err != nil {
			t.Fatal(err)
		} else if ops.MetaPrograms != 0 {
			t.Fatal("meta programs charged with journal disabled")
		}
	}
	if f.Media() != nil {
		t.Fatal("media image allocated with journal disabled")
	}
	if f.MediaOps() == 0 {
		t.Fatal("media-op counter should tick even without a journal")
	}
}
