package ssd

import (
	"testing"
	"time"

	"flexlevel/internal/baseline"
	"flexlevel/internal/ftl"
	"flexlevel/internal/stats"
)

// flatBER returns a BERFunc with fixed per-state values.
func flatBER(normal, reduced float64) BERFunc {
	return func(state ftl.BlockState, pe, ageHours, shiftMv int) float64 {
		if state == ftl.ReducedState {
			return reduced
		}
		return normal
	}
}

// agedBER grows linearly with age: ber = slope * ageHours.
func agedBER(slope float64) BERFunc {
	return func(state ftl.BlockState, pe, ageHours, shiftMv int) float64 {
		if state == ftl.ReducedState {
			return 0
		}
		return slope * float64(ageHours)
	}
}

// newWith builds a device over a fresh BER surface of ber, anchored at
// cfg's starting wear as a runner anchors its own.
func newWith(cfg Config, ber BERFunc, policy baseline.ReadPolicy) (*Device, error) {
	return New(cfg, NewBERSurface(ber, cfg.FTL.InitialPE, cfg.MaxDataAgeHours), policy)
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.FTL = ftl.Config{
		LogicalPages:  512,
		PagesPerBlock: 16,
		Blocks:        44,
		ReducedFactor: 0.75,
		GCThreshold:   3,
		GCTarget:      4,
	}
	cfg.MaxDataAgeHours = 720
	return cfg
}

func newDevice(t *testing.T, ber BERFunc, policy baseline.ReadPolicy) *Device {
	t.Helper()
	d, err := newWith(smallConfig(), ber, policy)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(512); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	cfg := smallConfig()
	if _, err := New(cfg, nil, baseline.FixedWorstCase{}); err == nil {
		t.Error("nil BER surface accepted")
	}
	if _, err := newWith(cfg, flatBER(0, 0), nil); err == nil {
		t.Error("nil policy accepted")
	}
	bad := cfg
	bad.Channels = -1
	if _, err := newWith(bad, flatBER(0, 0), baseline.FixedWorstCase{}); err == nil {
		t.Error("negative channel count accepted")
	}
	bad = cfg
	bad.MaxDataAgeHours = -1
	if _, err := newWith(bad, flatBER(0, 0), baseline.FixedWorstCase{}); err == nil {
		t.Error("negative age accepted")
	}
}

func TestPreloadBounds(t *testing.T) {
	d, err := newWith(smallConfig(), flatBER(0, 0), baseline.FixedWorstCase{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(1 << 20); err == nil {
		t.Error("oversized preload accepted")
	}
	if err := d.Preload(100); err != nil {
		t.Fatal(err)
	}
	if !d.FTL().Mapped(99) {
		t.Error("preloaded page not mapped")
	}
	if d.FTL().Mapped(100) {
		t.Error("page beyond preload mapped")
	}
	if d.FTL().Stats().UserPrograms != 0 {
		t.Error("preload left dirty stats")
	}
}

func TestReadLatencyDependsOnBER(t *testing.T) {
	// Clean device: reads at hard decision, 90µs.
	d := newDevice(t, flatBER(0, 0), baseline.FixedWorstCase{})
	resp, levels := d.Read(time.Second, 5)
	if levels != 0 {
		t.Errorf("levels = %d, want 0 at zero BER", levels)
	}
	if resp != 90*time.Microsecond {
		t.Errorf("resp = %v, want 90µs", resp)
	}
	// Dirty device: BER above trigger needs soft levels -> slower.
	d2 := newDevice(t, flatBER(8e-3, 0), baseline.FixedWorstCase{})
	resp2, levels2 := d2.Read(time.Second, 5)
	if levels2 < 1 {
		t.Errorf("levels = %d, want >= 1 at BER 8e-3", levels2)
	}
	if resp2 <= resp {
		t.Errorf("high-BER read %v not slower than clean read %v", resp2, resp)
	}
}

func TestReducedStateReadsFast(t *testing.T) {
	d := newDevice(t, flatBER(2e-2, 1e-4), baseline.FixedWorstCase{})
	// Page 5 in normal state: very slow.
	_, normalLevels := d.Read(time.Second, 5)
	if normalLevels < 5 {
		t.Fatalf("normal levels = %d, want many at BER 2e-2", normalLevels)
	}
	// Migrate page 6 to reduced: fast.
	if err := d.Migrate(time.Second, 6, ftl.ReducedState); err != nil {
		t.Fatal(err)
	}
	_, reducedLevels := d.Read(2*time.Second, 6)
	if reducedLevels != 0 {
		t.Errorf("reduced levels = %d, want 0", reducedLevels)
	}
}

func TestQueueingDelaysBackToBackReads(t *testing.T) {
	d := newDevice(t, flatBER(0, 0), baseline.FixedWorstCase{})
	// Two reads arriving at the same instant: the second waits.
	r1, _ := d.Read(time.Second, 1)
	r2, _ := d.Read(time.Second, 2)
	if r2 <= r1 {
		t.Errorf("second read %v should wait behind first %v", r2, r1)
	}
	if want := 2 * r1; r2 != want {
		t.Errorf("second read %v, want %v (FIFO)", r2, want)
	}
	// A read arriving after the channel drained sees base latency again.
	r3, _ := d.Read(time.Minute, 3)
	if r3 != r1 {
		t.Errorf("idle-channel read %v, want %v", r3, r1)
	}
}

func TestWriteBufferAbsorbsWrites(t *testing.T) {
	d := newDevice(t, flatBER(0, 0), baseline.FixedWorstCase{})
	resp, err := d.Write(time.Second, 5, ftl.NormalState)
	if err != nil {
		t.Fatal(err)
	}
	if resp != bufferLatency {
		t.Errorf("buffered write resp = %v, want %v", resp, bufferLatency)
	}
	// Saturate the buffer: responses grow once backlog exceeds capacity.
	var last time.Duration
	for i := 0; i < bufferPages+50; i++ {
		last, err = d.Write(time.Second, uint64(i%512), ftl.NormalState)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last <= bufferLatency {
		t.Errorf("overflowing write resp = %v, want above buffer latency", last)
	}
}

func TestWriteResetsAge(t *testing.T) {
	d := newDevice(t, agedBER(1e-4), baseline.FixedWorstCase{})
	// Find a page with nonzero required levels (aged by preload).
	var victim uint64
	found := false
	for lpn := uint64(0); lpn < 512; lpn++ {
		if l, _ := d.Patrol(lpn, 0); l > 0 {
			victim, found = lpn, true
			break
		}
	}
	if !found {
		t.Fatal("no aged page found; preload ages broken?")
	}
	if _, err := d.Write(time.Second, victim, ftl.NormalState); err != nil {
		t.Fatal(err)
	}
	if l, _ := d.Patrol(victim, time.Second); l != 0 {
		t.Errorf("levels after rewrite = %d, want 0 (age reset)", l)
	}
}

func TestGCRelocationResetsAge(t *testing.T) {
	d := newDevice(t, agedBER(1e-4), baseline.FixedWorstCase{})
	// Churn writes to force GC; relocated pages get fresh ages. Then no
	// page the GC moved may report a pre-aged BER. We simply verify GC
	// happened and nothing crashed, plus spot-check ages via the hook
	// accounting: total old pages must shrink.
	before := 0
	for lpn := uint64(0); lpn < 512; lpn++ {
		if l, _ := d.Patrol(lpn, 0); l > 0 {
			before++
		}
	}
	for i := 0; i < 4000; i++ {
		if _, err := d.Write(time.Second, uint64(i*7%512), ftl.NormalState); err != nil {
			t.Fatal(err)
		}
	}
	if d.Results().FTL.Erases == 0 {
		t.Fatal("churn did not trigger GC")
	}
	after := 0
	for lpn := uint64(0); lpn < 512; lpn++ {
		if l, _ := d.Patrol(lpn, time.Second); l > 0 {
			after++
		}
	}
	if after >= before {
		t.Errorf("aged pages %d -> %d: rewrites and GC should refresh ages", before, after)
	}
}

func TestPolicyRetriesCharged(t *testing.T) {
	// LDPC-in-SSD pays for escalation on first touch of a block, then
	// reads at the memorized level.
	d := newDevice(t, flatBER(9e-3, 0), baseline.LDPCInSSD{})
	r1, final := d.Read(time.Second, 5)
	r2, _ := d.Read(time.Minute, 5) // same block, idle channel
	if r2 >= r1 {
		t.Errorf("memorized read %v should be cheaper than first read %v", r2, r1)
	}
	if r1 <= timing.ReadLatency(final) {
		t.Errorf("first read %v charged no retry before its level-%d sense (%v)", r1, final, timing.ReadLatency(final))
	}
}

func TestResultsAccounting(t *testing.T) {
	d := newDevice(t, flatBER(0, 0), baseline.FixedWorstCase{})
	// The overall statistics must hold exactly the three responses.
	var want stats.Accumulator
	for lpn := uint64(1); lpn <= 2; lpn++ {
		resp, _ := d.Read(time.Second, lpn)
		want.Add(resp.Seconds())
	}
	resp, err := d.Write(time.Second, 3, ftl.NormalState)
	if err != nil {
		t.Fatal(err)
	}
	want.Add(resp.Seconds())
	res := d.Results()
	if res.Reads != 2 {
		t.Errorf("reads = %d, want 2", res.Reads)
	}
	if res.OverallResp != want {
		t.Errorf("overall samples = %+v, want the three responses %+v", res.OverallResp, want)
	}
	if res.LevelHist[0] != 2 {
		t.Errorf("level hist[0] = %d, want 2", res.LevelHist[0])
	}
	if res.FTL.UserPrograms != 1 {
		t.Errorf("user programs = %d, want 1", res.FTL.UserPrograms)
	}
}

func TestResetMeasurement(t *testing.T) {
	d := newDevice(t, flatBER(0, 0), baseline.FixedWorstCase{})
	d.Read(time.Second, 1)
	if _, err := d.Write(time.Second, 2, ftl.NormalState); err != nil {
		t.Fatal(err)
	}
	d.ResetMeasurement()
	res := d.Results()
	if res.Reads != 0 || res.FTL.UserPrograms != 0 {
		t.Error("ResetMeasurement left residue")
	}
	if d.Now() != 0 {
		t.Error("clock not reset")
	}
}

func TestMigrateChargesBusyTime(t *testing.T) {
	d := newDevice(t, flatBER(0, 0), baseline.FixedWorstCase{})
	before := d.Now()
	if err := d.Migrate(0, 5, ftl.ReducedState); err != nil {
		t.Fatal(err)
	}
	if d.Now() <= before {
		t.Error("migration did not consume channel time")
	}
	// Migration is background work: no response-time samples.
	res := d.Results()
	if res.OverallResp != (stats.Accumulator{}) {
		t.Error("migration produced a response-time sample")
	}
}

func TestUnmappedReadCheap(t *testing.T) {
	d, err := newWith(smallConfig(), flatBER(1e-2, 0), baseline.FixedWorstCase{})
	if err != nil {
		t.Fatal(err)
	}
	// No preload: everything unmapped. Read must not crash and costs
	// base latency.
	resp, levels := d.Read(time.Second, 7)
	if levels != 0 {
		t.Errorf("unmapped read levels = %d, want 0", levels)
	}
	if resp != 90*time.Microsecond {
		t.Errorf("unmapped read resp = %v, want 90µs", resp)
	}
}
