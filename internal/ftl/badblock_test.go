package ftl

import (
	"errors"
	"strings"
	"testing"

	"flexlevel/internal/fault"
)

// spareConfig is smallConfig plus a reserved spare pool.
func spareConfig(spares int) Config {
	c := smallConfig()
	c.SpareBlocks = spares
	return c
}

// failNth returns a Fault hook that fails the nth (0-based) check of the
// given class and nothing else.
func failNth(op fault.Op, n int) func(fault.Op, int, int) bool {
	seen := 0
	return func(o fault.Op, _, _ int) bool {
		if o != op {
			return false
		}
		seen++
		return seen-1 == n
	}
}

func TestValidateErrorBranches(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.LogicalPages = 0 }, "logical"},
		{func(c *Config) { c.PagesPerBlock = 0 }, "geometry"},
		{func(c *Config) { c.Blocks = -1 }, "geometry"},
		{func(c *Config) { c.ReducedFactor = 0 }, "reduced factor"},
		{func(c *Config) { c.ReducedFactor = 1.5 }, "reduced factor"},
		{func(c *Config) { c.Blocks = 8 }, "over-provisioning"},
		{func(c *Config) { c.GCThreshold = 1 }, "threshold"},
		{func(c *Config) { c.GCTarget = 3 }, "target"},
		{func(c *Config) { c.InitialPE = -1 }, "initial P/E"},
		{func(c *Config) { c.SpareBlocks = -1 }, "negative spare"},
		{func(c *Config) { c.SpareBlocks = 44 }, "not below total"},
		{func(c *Config) { c.SpareBlocks = 13 }, "in-service"},
	}
	for i, tc := range cases {
		c := smallConfig()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("case %d: invalid config accepted", i)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: error %q does not mention %q", i, err, tc.want)
		}
	}
	if err := spareConfig(4).Validate(); err != nil {
		t.Errorf("valid spare config rejected: %v", err)
	}
}

func TestSparePoolReservation(t *testing.T) {
	f, err := New(spareConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.SpareBlocksLeft(); got != 4 {
		t.Errorf("SpareBlocksLeft = %d, want 4", got)
	}
	if got := len(f.free); got != 40 {
		t.Errorf("FreeBlocks = %d, want 40 (44 total - 4 spares)", got)
	}
}

func TestProgramFailureRetryAndRemap(t *testing.T) {
	f, err := New(spareConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for lpn := uint64(0); lpn < 10; lpn++ {
		if _, _, err := f.Write(lpn, NormalState); err != nil {
			t.Fatal(err)
		}
	}
	firstBlock := f.blockOf(f.mapOf(0))
	f.Fault = failNth(fault.Program, 0)
	ppn, ops, err := f.Write(10, NormalState)
	if err != nil {
		t.Fatalf("write after program failure: %v", err)
	}
	st := f.Stats()
	if st.ProgramFailures != 1 || st.RetiredBlocks != 1 || st.SparesUsed != 1 {
		t.Errorf("stats = %+v, want 1 program failure, 1 retired, 1 spare used", st)
	}
	if !f.BadBlock(firstBlock) {
		t.Errorf("block %d not marked bad after program failure", firstBlock)
	}
	// Charged ops: failed program + 10 relocation programs (the
	// remap-and-replay of the open block) + the replay.
	if ops.Programs != 12 || ops.CopyReads != 10 {
		t.Errorf("ops = %+v, want 12 programs / 10 copy reads", ops)
	}
	if f.blockOf(ppn) == firstBlock {
		t.Error("replayed write landed on the retired block")
	}
	for lpn := uint64(0); lpn <= 10; lpn++ {
		p, _, ok := f.Lookup(lpn)
		if !ok {
			t.Fatalf("lpn %d lost after retirement", lpn)
		}
		if f.blockOf(p) == firstBlock {
			t.Errorf("lpn %d still mapped onto the retired block", lpn)
		}
	}
	if f.SpareBlocksLeft() != 1 {
		t.Errorf("SpareBlocksLeft = %d, want 1", f.SpareBlocksLeft())
	}
}

func TestProgramRetryExhaustion(t *testing.T) {
	f, err := New(spareConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Write(0, NormalState); err != nil {
		t.Fatal(err)
	}
	oldPPN := f.mapOf(0)
	f.Fault = func(op fault.Op, _, _ int) bool { return op == fault.Program }
	_, _, err = f.Write(0, NormalState)
	if !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("err = %v, want ErrWriteFailed", err)
	}
	// The old data must survive a failed rewrite, even though its block
	// was retired along the way (bad blocks stay readable).
	p, _, ok := f.Lookup(0)
	if !ok || p != oldPPN {
		t.Errorf("lookup after failed rewrite = (%d, %v), want old ppn %d", p, ok, oldPPN)
	}
	st := f.Stats()
	wantFails := int64(DefaultProgramRetries + 1)
	if st.ProgramFailures != wantFails || st.RetiredBlocks != wantFails {
		t.Errorf("stats = %+v, want %d failures and retirements", st, wantFails)
	}
	// A never-mapped page fails cleanly and stays unmapped.
	if _, _, err := f.Write(100, NormalState); !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("unmapped write err = %v, want ErrWriteFailed", err)
	}
	if f.Mapped(100) {
		t.Error("failed write left lpn 100 mapped")
	}
}

// driveGC overwrites a small hot set until cond holds or the write path
// errs out, returning the first error.
func driveGC(f *FTL, hot uint64, writes int, cond func() bool) error {
	for i := 0; i < writes; i++ {
		if cond() {
			return nil
		}
		if _, _, err := f.Write(uint64(i)%hot, NormalState); err != nil {
			return err
		}
	}
	return nil
}

func TestEraseFailureConsumesSpare(t *testing.T) {
	f, err := New(spareConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	f.Fault = failNth(fault.Erase, 0)
	st := func() Stats { return f.Stats() }
	if err := driveGC(f, 64, 20000, func() bool { return st().EraseFailures > 0 }); err != nil {
		t.Fatal(err)
	}
	s := st()
	if s.EraseFailures != 1 {
		t.Fatalf("EraseFailures = %d, want 1 (GC never ran?)", s.EraseFailures)
	}
	if s.RetiredBlocks != 1 || s.SparesUsed != 1 {
		t.Errorf("stats = %+v, want 1 retirement backfilled by 1 spare", s)
	}
	if f.Degraded() {
		t.Error("degraded after a single spared retirement")
	}
	if f.SpareBlocksLeft() != 1 {
		t.Errorf("SpareBlocksLeft = %d, want 1", f.SpareBlocksLeft())
	}
}

func TestGrownBadBlockRetirement(t *testing.T) {
	f, err := New(spareConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	f.Fault = failNth(fault.Grown, 0)
	st := func() Stats { return f.Stats() }
	if err := driveGC(f, 64, 20000, func() bool { return st().GrownBadBlocks > 0 }); err != nil {
		t.Fatal(err)
	}
	s := st()
	if s.GrownBadBlocks != 1 || s.RetiredBlocks != 1 || s.SparesUsed != 1 {
		t.Errorf("stats = %+v, want 1 grown-bad retirement from 1 spare", s)
	}
	// The grown-bad screen runs after a successful erase, so the erase
	// itself is still counted.
	if s.Erases == 0 || s.EraseFailures != 0 {
		t.Errorf("stats = %+v, want counted erase and no erase failures", s)
	}
}

func TestDegradedMode(t *testing.T) {
	cfg := spareConfig(1)
	cfg.GCThreshold = 6
	cfg.GCTarget = 10
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Map the full logical space first so degraded-mode reads can be
	// checked across all of it.
	for lpn := uint64(0); lpn < cfg.LogicalPages; lpn++ {
		if _, _, err := f.Write(lpn, NormalState); err != nil {
			t.Fatal(err)
		}
	}
	// Every erase fails: each GC pass retires blocks until the surviving
	// capacity can no longer hold logical space + GC headroom.
	f.Fault = func(op fault.Op, _, _ int) bool { return op == fault.Erase }
	var wErr error
	for i := 0; i < 200000 && wErr == nil; i++ {
		_, _, wErr = f.Write(uint64(i)%64, NormalState)
	}
	if !errors.Is(wErr, ErrDegraded) {
		t.Fatalf("write error = %v, want ErrDegraded", wErr)
	}
	if !f.Degraded() {
		t.Error("Degraded() false after ErrDegraded")
	}
	s := f.Stats()
	if s.SparesUsed != 1 {
		t.Errorf("SparesUsed = %d, want 1", s.SparesUsed)
	}
	// 44 blocks * 16 pages, logical 512, GCTarget 10: degradation is
	// declared when surviving capacity < 512 + 160 pages, i.e. after the
	// third unreplaced retirement.
	if s.RetiredBlocks < 3 {
		t.Errorf("RetiredBlocks = %d, want >= 3 before degrading", s.RetiredBlocks)
	}
	// Reads still work for the whole logical space; writes keep being
	// rejected gracefully.
	for lpn := uint64(0); lpn < cfg.LogicalPages; lpn++ {
		if _, _, ok := f.Lookup(lpn); !ok {
			t.Fatalf("lpn %d unreadable in degraded mode", lpn)
		}
	}
	if _, _, err := f.Write(3, NormalState); !errors.Is(err, ErrDegraded) {
		t.Errorf("second write err = %v, want ErrDegraded", err)
	}
	if _, _, err := f.Migrate(3, ReducedState); !errors.Is(err, ErrDegraded) {
		t.Errorf("migrate err = %v, want ErrDegraded", err)
	}
	// The rejected writes must not have lost the stored data.
	if !f.Mapped(3) {
		t.Error("rejected write unmapped its page")
	}
}
