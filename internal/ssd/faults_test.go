package ssd

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"flexlevel/internal/baseline"
	"flexlevel/internal/fault"
	"flexlevel/internal/ftl"
)

// emptyPolicy violates the ReadPolicy contract by returning no attempts.
type emptyPolicy struct{}

func (emptyPolicy) AppendAttempts(dst []int, _, _ int) []int { return dst }
func (emptyPolicy) Name() string                             { return "empty" }

func TestEmptyAttemptsGuard(t *testing.T) {
	d := newDevice(t, flatBER(0, 0), emptyPolicy{})
	resp, final := d.Read(0, 1) // must not panic
	if final != 0 {
		t.Errorf("final level = %d, want 0 (hard-decision fallback)", final)
	}
	if want := timing.ReadLatency(0); resp != want {
		t.Errorf("resp = %v, want one hard-decision read %v", resp, want)
	}
	r := d.Results()
	if r.Reads != 1 || r.LevelHist[0] != 1 {
		t.Errorf("results = %+v, want exactly one level-0 read", r)
	}
}

func TestValidateErrorBranches(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.FTL.LogicalPages = 0 }, "ftl:"},
		{func(c *Config) { c.MaxDataAgeHours = -1 }, "data age"},
		{func(c *Config) { c.Channels = -1 }, "channel count"},
		{func(c *Config) { c.RefreshAboveLevels = -1 }, "refresh threshold"},
		{func(c *Config) { c.Faults.Read.Base = 2 }, "fault:"},
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
		if _, err := newWith(c, flatBER(0, 0), baseline.FixedWorstCase{}); err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		}
	}
}

// readScript builds a config whose injector fails exactly the first n
// transient-read checks (the retry bound is DefaultReadRetries, 3).
func readScript(n int) Config {
	cfg := smallConfig()
	for i := 0; i < n; i++ {
		cfg.Faults.Script = append(cfg.Faults.Script, fault.ScriptEvent{Op: fault.Read, Index: int64(i)})
	}
	return cfg
}

func TestTransientReadRetryEscalation(t *testing.T) {
	d, err := newWith(readScript(2), flatBER(0, 0), baseline.FixedWorstCase{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(512); err != nil {
		t.Fatal(err)
	}
	resp, final := d.Read(0, 1)
	r := d.Results()
	if r.TransientReadFaults != 2 || r.ReadRetries != 2 || r.DataLoss != 0 {
		t.Errorf("results = %+v, want 2 transient faults, 2 retries, no loss", r)
	}
	// A zero BER needs 1 attempt; the two retries escalate to levels 1 and 2
	// and each is charged.
	if final != 2 || r.LevelHist[2] != 1 {
		t.Errorf("final level = %d (histogram %v), want 2 after two escalations", final, r.LevelHist)
	}
	want := timing.ReadLatency(0) + timing.ReadLatency(1) + timing.ReadLatency(2)
	if resp != want {
		t.Errorf("resp = %v, want %v (retries charged)", resp, want)
	}
	// The next read sees no scripted fault and is clean.
	if _, final := d.Read(time.Second, 2); final != 0 {
		t.Errorf("clean read escalated to level %d", final)
	}
	if r := d.Results(); r.TransientReadFaults != 2 || r.ReadRetries != 2 || r.LevelHist[0] != 1 || r.LevelHist[2] != 1 {
		t.Errorf("results = %+v, want the clean read at level 0 with no new fault", r)
	}
}

func TestReadRetryExhaustionIsDataLoss(t *testing.T) {
	d, err := newWith(readScript(4), flatBER(0, 0), baseline.FixedWorstCase{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(512); err != nil {
		t.Fatal(err)
	}
	d.Read(0, 1)
	r := d.Results()
	if r.DataLoss != 1 {
		t.Errorf("DataLoss = %d, want 1 after exhausting the retry bound", r.DataLoss)
	}
	if r.TransientReadFaults != 4 || r.ReadRetries != 3 {
		t.Errorf("results = %+v, want 4 faults and 3 charged retries", r)
	}
}

// TestZeroRateFaultsBitIdentical: a present-but-zero fault config must
// leave the simulation bit-identical to a device without one.
func TestZeroRateFaultsBitIdentical(t *testing.T) {
	run := func(cfg Config) Results {
		d, err := newWith(cfg, agedBER(1e-6), baseline.LDPCInSSD{})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Preload(512); err != nil {
			t.Fatal(err)
		}
		now := time.Duration(0)
		for i := 0; i < 4000; i++ {
			lpn := uint64(i*37) % 512
			if i%3 == 0 {
				if _, err := d.Write(now, lpn, ftl.NormalState); err != nil {
					t.Fatal(err)
				}
			} else {
				d.Read(now, lpn)
			}
			now += 40 * time.Microsecond
		}
		return d.Results()
	}
	plain := run(smallConfig())
	zeroed := smallConfig()
	zeroed.Faults = fault.Config{Seed: 99} // seeded but zero rates: disabled
	if got := run(zeroed); !reflect.DeepEqual(plain, got) {
		t.Errorf("zero-rate fault config changed results:\nplain: %+v\nfault: %+v", plain, got)
	}
}

func TestLevelCacheBounded(t *testing.T) {
	d, err := newWith(smallConfig(), agedBER(1e-9), baseline.FixedWorstCase{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(512); err != nil {
		t.Fatal(err)
	}
	// Each read happens at a new time, so its retention age — and its
	// BER — is a fresh continuous value.
	for i := 0; i < 3*levelCacheCap; i++ {
		d.Read(time.Duration(i)*time.Hour, uint64(i)%512)
		if len(d.levelCache) > levelCacheCap {
			t.Fatalf("level cache grew to %d entries (cap %d)", len(d.levelCache), levelCacheCap)
		}
	}
}

// TestScriptedFaultScenario is the acceptance scenario: a program
// failure is retried on a fresh block, erase failures retire blocks into
// the spare pool, and once the spares are gone the device degrades —
// reads still served, writes rejected gracefully — with every step
// visible in the counters.
func TestScriptedFaultScenario(t *testing.T) {
	cfg := smallConfig()
	cfg.FTL = ftl.Config{
		LogicalPages:  64,
		PagesPerBlock: 8,
		Blocks:        16,
		SpareBlocks:   2,
		ReducedFactor: 0.75,
		GCThreshold:   4,
		GCTarget:      6,
	}
	// The first page program fails; after that, every erase fails.
	cfg.Faults.Script = []fault.ScriptEvent{{Op: fault.Program, Index: 0}}
	for i := 0; i < 1000; i++ {
		cfg.Faults.Script = append(cfg.Faults.Script, fault.ScriptEvent{Op: fault.Erase, Index: int64(i)})
	}
	d, err := newWith(cfg, flatBER(0, 0), baseline.LDPCInSSD{})
	if err != nil {
		t.Fatal(err)
	}
	var injected int64
	fails := d.ftl.Fault
	d.ftl.Fault = func(op fault.Op, block, pe int) bool {
		hit := fails(op, block, pe)
		if hit {
			injected++
		}
		return hit
	}

	// Phase 1 — the very first write hits a program-status failure and
	// must transparently replay on a fresh block.
	now := time.Duration(0)
	if _, err := d.Write(now, 0, ftl.NormalState); err != nil {
		t.Fatalf("write across program failure: %v", err)
	}
	r := d.Results()
	if r.FTL.ProgramFailures != 1 || r.FTL.RetiredBlocks != 1 || r.FTL.SparesUsed != 1 {
		t.Fatalf("after program failure: %+v, want 1 failure / 1 retirement / 1 spare", r.FTL)
	}
	if ppn, _, ok := d.ftl.Lookup(0); !ok || d.ftl.BadBlock(int(ppn)/cfg.FTL.PagesPerBlock) {
		t.Fatal("replayed write not mapped onto a healthy block")
	}

	// Phase 2 — map the full space, then overwrite until GC needs an
	// erase; the scripted erase failure retires the victim into the
	// second (and last) spare.
	for lpn := uint64(1); lpn < 64; lpn++ {
		if _, err := d.Write(now, lpn, ftl.NormalState); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; d.Results().FTL.EraseFailures == 0 && i < 5000; i++ {
		if _, err := d.Write(now, uint64(i)%64, ftl.NormalState); err != nil {
			t.Fatal(err)
		}
	}
	r = d.Results()
	if r.FTL.EraseFailures == 0 {
		t.Fatal("GC never hit the scripted erase failure")
	}
	if r.FTL.SparesUsed != 2 {
		t.Fatalf("SparesUsed = %d, want both spares consumed", r.FTL.SparesUsed)
	}

	// Phase 3 — with the spare pool dry, continuing erase failures must
	// degrade the device instead of hard-erroring.
	for i := 0; !d.Degraded() && i < 20000; i++ {
		if _, err := d.Write(now, uint64(i)%64, ftl.NormalState); err != nil {
			t.Fatalf("write before degradation: %v", err)
		}
	}
	if !d.Degraded() {
		t.Fatal("device never entered degraded mode")
	}
	// Writes are rejected gracefully (a dropped-write error, counted),
	// reads and the stored data still work.
	pre := d.Results().WritesRejected
	if resp, err := d.Write(now, 7, ftl.NormalState); !errors.Is(err, ftl.ErrDegraded) || !ftl.WriteRefused(err) || resp != bufferLatency {
		t.Fatalf("degraded-mode write = %v, %v; want the buffer latency and a dropped ErrDegraded", resp, err)
	}
	r = d.Results()
	if r.WritesRejected != pre+1 {
		t.Errorf("WritesRejected = %d, want %d", r.WritesRejected, pre+1)
	}
	for lpn := uint64(0); lpn < 64; lpn++ {
		if _, _, ok := d.ftl.Lookup(lpn); !ok {
			t.Fatalf("lpn %d lost in degraded mode", lpn)
		}
	}
	if resp, _ := d.Read(now, 7); resp <= 0 {
		t.Error("degraded-mode read not served")
	}
	if r.FTL.RetiredBlocks < 3 {
		t.Errorf("RetiredBlocks = %d, want >= 3", r.FTL.RetiredBlocks)
	}
	if injected != r.FTL.ProgramFailures+r.FTL.EraseFailures {
		t.Errorf("injector total %d != program+erase failures %d",
			injected, r.FTL.ProgramFailures+r.FTL.EraseFailures)
	}
}

// TestOutOfBlocksWriteRejected: the write that finds no free block ends
// the device's write life. The FTL latches degraded mode, and Write
// counts that write in WritesRejected at buffer latency, like every
// refusal after it.
func TestOutOfBlocksWriteRejected(t *testing.T) {
	cfg := smallConfig()
	cfg.FTL.SpareBlocks = 1
	cfg.Faults = fault.Config{Seed: 1, Grown: fault.RateCurve{Base: 1}}
	d, err := newWith(cfg, flatBER(0, 0), baseline.FixedWorstCase{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(cfg.FTL.LogicalPages); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		pre := d.Results()
		resp, err := d.Write(0, uint64(i*7)%cfg.FTL.LogicalPages, ftl.NormalState)
		if err == nil {
			continue
		}
		if !errors.Is(err, ftl.ErrNoFreeBlocks) {
			t.Fatalf("write %d: %v; the device no longer runs out of free blocks first", i, err)
		}
		if !errors.Is(err, ftl.ErrDegraded) || !d.Degraded() {
			t.Fatalf("out-of-blocks write = %v, degraded %v; want ErrDegraded and the latch set", err, d.Degraded())
		}
		got := d.Results()
		if resp != bufferLatency || got.WritesRejected != pre.WritesRejected+1 {
			t.Fatalf("out-of-blocks write = %v, WritesRejected %d; want %v and %d",
				resp, got.WritesRejected, bufferLatency, pre.WritesRejected+1)
		}
		want := pre.WriteResp
		want.Add(bufferLatency.Seconds())
		if got.WriteResp != want {
			t.Fatalf("out-of-blocks write recorded %+v of write latency, want one more %v: %+v", got.WriteResp, bufferLatency, want)
		}
		return
	}
	t.Fatal("the device never ran out of free blocks")
}
