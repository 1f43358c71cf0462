// Integration tests for the block service, driven over real HTTP
// against an httptest listener: overload (shedding engages and admitted
// traffic keeps its SLO), degraded read-only mode, scripted crash +
// recovery with zero acknowledged-write loss, and the SIGTERM drain
// contract (in-flight ops finish, the final snapshot lands).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flexlevel/internal/core"
	"flexlevel/internal/fault"
	"flexlevel/internal/ftl"
	"flexlevel/internal/trace"
)

// smallFTL is a fast test geometry (preload in milliseconds).
func smallFTL() *ftl.Config {
	return &ftl.Config{
		LogicalPages:  2048,
		PagesPerBlock: 16,
		Blocks:        176,
		ReducedFactor: 0.75,
		GCThreshold:   3,
		GCTarget:      4,
	}
}

// testTenants is a two-tenant namespace over the small device.
func testTenants() []trace.TenantSpec {
	return []trace.TenantSpec{
		{Name: "alpha", Weight: 2, Model: trace.SteadyModel, ReadRatio: 0.8,
			ZipfS: 1.2, Base: 0, WorkingSet: 1024, MeanPages: 1, SeqProb: 0},
		{Name: "beta", Weight: 1, Model: trace.SteadyModel, ReadRatio: 0.5,
			ZipfS: 1.2, Base: 1024, WorkingSet: 1024, MeanPages: 1, SeqProb: 0},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.FTL == nil {
		cfg.FTL = smallFTL()
	}
	if cfg.Tenants == nil {
		cfg.Tenants = testTenants()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, hs
}

// get decodes a JSON GET.
func get(t *testing.T, client *http.Client, url string, v any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func post(t *testing.T, client *http.Client, url string, v any) int {
	t.Helper()
	resp, err := client.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServeReadWrite: the basic API contract — reads and writes
// succeed, writes ack with dense per-tenant sequences, bad requests are
// typed 400s, and /metrics reflects the traffic.
func TestServeReadWrite(t *testing.T) {
	_, hs := newTestServer(t, Config{System: core.FlexLevel, PE: 6000, Seed: 7})
	c := hs.Client()

	var rr ReadResponse
	if code := get(t, c, hs.URL+"/v1/read?tenant=alpha&lpn=5&pages=2", &rr); code != 200 {
		t.Fatalf("read returned %d", code)
	}
	if rr.LatencyUS <= 0 {
		t.Fatalf("read latency %v not positive", rr.LatencyUS)
	}
	for want := uint64(1); want <= 3; want++ {
		var wr WriteResponse
		if code := post(t, c, hs.URL+"/v1/write?tenant=beta&lpn=10&pages=1", &wr); code != 200 {
			t.Fatalf("write returned %d", code)
		}
		if wr.Seq != want {
			t.Fatalf("write ack seq %d, want %d (dense per-tenant sequence)", wr.Seq, want)
		}
	}

	for _, bad := range []string{
		"/v1/read?tenant=nobody&lpn=0",           // unknown tenant
		"/v1/read?tenant=alpha&lpn=1024",         // outside window
		"/v1/read?tenant=alpha&lpn=1020&pages=9", // range crosses window end
		"/v1/read?tenant=alpha&lpn=x",            // junk lpn
		"/v1/read?tenant=alpha&lpn=1&pages=999",  // pages over limit
		"/v1/read?tenant=alpha&lpn=1&deadline_us=-1",
		"/v1/read?tenant=alpha&lpn=1&deadline_us=1e16", // overflows int64 ns
		"/v1/read?tenant=alpha&lpn=1&deadline_us=1e-4", // rounds to 0 ns
	} {
		var er ErrorResponse
		if code := get(t, c, hs.URL+bad, &er); code != 400 || er.Code != CodeBadRequest {
			t.Fatalf("%s returned %d/%q, want 400 bad_request", bad, code, er.Code)
		}
	}
	// Method confusion is rejected.
	if code := post(t, c, hs.URL+"/v1/read?tenant=alpha&lpn=0", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST to /v1/read returned %d", code)
	}

	var snap Snapshot
	if code := get(t, c, hs.URL+"/metrics", &snap); code != 200 {
		t.Fatalf("/metrics returned %d", code)
	}
	if snap.Admitted != 4 || snap.Writes != 3 || snap.Reads != 1 {
		t.Fatalf("snapshot admitted/reads/writes = %d/%d/%d, want 4/1/3",
			snap.Admitted, snap.Reads, snap.Writes)
	}
	if snap.Tenants[1].AckSeq != 3 {
		t.Fatalf("beta ack seq %d, want 3", snap.Tenants[1].AckSeq)
	}
	var h healthStatus
	if code := get(t, c, hs.URL+"/healthz", &h); code != 200 || h.Status != "ok" {
		t.Fatalf("/healthz returned %d %q", code, h.Status)
	}
}

// TestServeOverloadSheds: offered load far beyond device capacity makes
// the SLO shedder engage (429 + Retry-After) while every admitted
// request keeps its latency budget — and the shedding self-clears once
// the client backs off.
func TestServeOverloadSheds(t *testing.T) {
	slo := 2 * time.Millisecond
	s, hs := newTestServer(t, Config{
		System: core.Baseline, PE: 4000, Seed: 3,
		QueueDepth: 2,
		// One op per simulated microsecond against a ~90µs read device:
		// the queue grows immediately.
		SimGap:  time.Microsecond,
		SLOWait: slo,
	})
	c := hs.Client()

	var shed, ok int
	var worstUS float64
	for i := 0; i < 800; i++ {
		url := fmt.Sprintf("%s/v1/read?tenant=alpha&lpn=%d", hs.URL, i%1024)
		resp, err := c.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case 200:
			var rr ReadResponse
			json.NewDecoder(resp.Body).Decode(&rr)
			ok++
			if rr.LatencyUS > worstUS {
				worstUS = rr.LatencyUS
			}
		case 429:
			var er ErrorResponse
			json.NewDecoder(resp.Body).Decode(&er)
			if er.Code != CodeShed && er.Code != CodeQueueFull {
				t.Fatalf("429 with code %q", er.Code)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			shed++
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if shed == 0 {
		t.Fatal("overload never shed")
	}
	if ok == 0 {
		t.Fatal("overload admitted nothing")
	}
	// Admitted requests held the SLO: wait budget + service time. A
	// multi-page op can serialize pages on one channel, so allow the
	// budget plus a generous service allowance.
	if worstUS > float64((slo + 10*time.Millisecond).Microseconds()) {
		t.Fatalf("admitted request saw %gµs, SLO wait budget is %v", worstUS, slo)
	}
	// Shed requests appear in the metrics but never in percentiles'
	// sample (rings only hold admitted ops).
	snap := s.Snapshot()
	if snap.Shed == 0 {
		t.Fatal("snapshot shows no sheds")
	}
	if snap.Admitted != int64(ok) {
		t.Fatalf("snapshot admitted %d, client saw %d", snap.Admitted, ok)
	}

	// Back off (sim time advances with each op): a slow trickle is
	// admitted again — the shedder self-clears.
	cleared := false
	for i := 0; i < 50 && !cleared; i++ {
		url := fmt.Sprintf("%s/v1/read?tenant=beta&lpn=%d&pages=1", hs.URL, i)
		if code := get(t, c, url, nil); code == 200 {
			cleared = true
		}
	}
	if !cleared {
		t.Fatal("shedding never cleared after backoff")
	}
}

// TestServeDeadline: a deadline tighter than the projected queue wait
// cancels the op with a typed 504 before it reaches the device.
func TestServeDeadline(t *testing.T) {
	s, hs := newTestServer(t, Config{
		System: core.Baseline, PE: 4000, Seed: 5,
		QueueDepth: 1,
		SimGap:     time.Microsecond,
	})
	c := hs.Client()
	// Build a backlog, then send an op that cannot start within 1µs.
	for i := 0; i < 50; i++ {
		get(t, c, fmt.Sprintf("%s/v1/read?tenant=alpha&lpn=%d", hs.URL, i), nil)
	}
	sawDeadline := false
	for i := 0; i < 50 && !sawDeadline; i++ {
		var er ErrorResponse
		code := get(t, c, hs.URL+"/v1/read?tenant=alpha&lpn=9&deadline_us=1", &er)
		if code == 504 {
			if er.Code != CodeDeadline {
				t.Fatalf("504 with code %q", er.Code)
			}
			sawDeadline = true
		}
	}
	if !sawDeadline {
		t.Fatal("tight deadline never produced a 504")
	}
	if snap := s.Snapshot(); snap.DeadlineExceeded == 0 {
		t.Fatal("snapshot shows no deadline cancellations")
	}
}

// TestServeDegradedReadOnly: a device whose spares are exhausted keeps
// serving reads while writes fail with the typed read-only error.
func TestServeDegradedReadOnly(t *testing.T) {
	cfg := smallFTL()
	cfg.SpareBlocks = 1
	s, hs := newTestServer(t, Config{
		System: core.Baseline, PE: 6000, Seed: 11,
		FTL: cfg,
		// Every erase grows a bad block: GC retires the device's spare
		// capacity almost immediately under write pressure.
		Faults: fault.Config{Seed: 1, Grown: fault.RateCurve{Base: 1}},
	})
	c := hs.Client()

	// Write until the device degrades (GC → erase → grown-bad → spares
	// gone). The device swallows degraded writes, so watch /healthz.
	degraded := false
	for i := 0; i < 4000 && !degraded; i++ {
		post(t, c, fmt.Sprintf("%s/v1/write?tenant=alpha&lpn=%d", hs.URL, i%1024), nil)
		if i%64 == 0 {
			var h healthStatus
			get(t, c, hs.URL+"/healthz", &h)
			degraded = h.Degraded
		}
	}
	if !degraded {
		t.Fatal("device did not degrade under an every-erase-grows-bad fault config")
	}
	// Writes now fail typed...
	var er ErrorResponse
	if code := post(t, c, hs.URL+"/v1/write?tenant=alpha&lpn=3", &er); code != 503 || er.Code != CodeReadOnly {
		t.Fatalf("degraded write returned %d/%q, want 503 read_only", code, er.Code)
	}
	// ...while reads keep flowing.
	for i := 0; i < 20; i++ {
		var rr ReadResponse
		if code := get(t, c, fmt.Sprintf("%s/v1/read?tenant=alpha&lpn=%d", hs.URL, i), &rr); code != 200 {
			t.Fatalf("degraded read returned %d", code)
		}
	}
	if snap := s.Snapshot(); snap.ReadOnlyRejects == 0 || !snap.Degraded {
		t.Fatalf("snapshot misses degradation: rejects=%d degraded=%v",
			snap.ReadOnlyRejects, snap.Degraded)
	}
}

// TestServeOutOfBlocksReadOnly: a device can run out of free blocks
// before the FTL's capacity check trips degraded mode — every erase
// grows a bad block, and with random writes spread over the whole
// device GC strands the survivors faster than their count falls. The
// write that finds no free block is the end of write life, which the
// FTL latches as degraded mode: that write and every later one answer
// the typed 503 read_only, the tenants count them,
// /healthz and /metrics report the shard degraded, and reads keep
// flowing — FlexLevel's included, whose AccessEval migrations need
// blocks too. The one write that may not be a refusal is a multi-page
// write whose later page found no block: its earlier pages are already
// remapped, so it fails unacked with a 500 that says so.
func TestServeOutOfBlocksReadOnly(t *testing.T) {
	for _, tc := range []struct {
		system  core.System
		pages   int
		partial bool // the first failing write had pages through already
	}{
		{core.Baseline, 1, false},
		{core.FlexLevel, 1, false},
		{core.Baseline, 8, true},
	} {
		t.Run(fmt.Sprintf("%v/pages=%d", tc.system, tc.pages), func(t *testing.T) {
			serveOutOfBlocks(t, tc.system, tc.pages, tc.partial)
		})
	}
}

func serveOutOfBlocks(t *testing.T, system core.System, pages int, partial bool) {
	geo := smallFTL()
	geo.SpareBlocks = 1
	tenants := spreadTenants(4, geo.LogicalPages)
	_, hs := newTestServer(t, Config{
		System: system, PE: 6000, Seed: 11,
		FTL:     geo,
		Tenants: tenants,
		Faults:  fault.Config{Seed: 1, Grown: fault.RateCurve{Base: 1}},
	})
	c := hs.Client()

	const writes = 3000
	rng := rand.New(rand.NewSource(1))
	codes := map[int]int{}
	readOnly, failed := 0, 0
	first := ""
	for i := 0; i < writes; i++ {
		ti := i % len(tenants)
		url := fmt.Sprintf("%s/v1/write?tenant=%s&lpn=%d&pages=%d", hs.URL, tenants[ti].Name, rng.Intn(512-pages+1), pages)
		var er ErrorResponse
		code := post(t, c, url, &er)
		codes[code]++
		switch {
		case code == 200:
			if failed > 0 {
				t.Fatalf("write %d acked after the device turned read-only", i)
			}
		case code == 503 && er.Code == CodeReadOnly:
			if failed == 0 {
				first = er.Message
			}
			readOnly++
			failed++
		case code == 500 && failed == 0:
			first = er.Message
			failed++
		default:
			t.Fatalf("write %d: %d %q %q; want 200, then 503 read_only (or one 500 first)", i, code, er.Code, er.Message)
		}
	}
	if readOnly == 0 || codes[200]+codes[503]+codes[500] != writes {
		t.Fatalf("write status counts %v: want 200s, then 503 read_only", codes)
	}
	// The FTL's own degraded mode must not be what stopped the writes.
	if !strings.Contains(first, "out of free blocks") {
		t.Fatalf("first failed write answered %q; the scenario no longer runs out of blocks first", first)
	}
	if got := codes[500] == 1; got != partial {
		t.Fatalf("first failed write answered %q; want a partial write %v", first, partial)
	}
	if partial && !strings.Contains(first, "pages written") {
		t.Fatalf("partial write answered %q, not naming the pages written", first)
	}
	var h healthStatus
	if code := get(t, c, hs.URL+"/healthz", &h); code != 200 || !h.Degraded || h.Status != "degraded" {
		t.Fatalf("/healthz %d %+v, want 200 degraded", code, h)
	}
	// Enough reads that FlexLevel's pool fills and evicts: both
	// conversions need a block the device no longer has.
	const nReads = 5000
	reads := map[int]int{}
	for i := 0; i < nReads; i++ {
		var rr ReadResponse
		reads[get(t, c, fmt.Sprintf("%s/v1/read?tenant=%s&lpn=%d", hs.URL, tenants[i%len(tenants)].Name, rng.Intn(512)), &rr)]++
	}
	if reads[200] != nReads {
		t.Fatalf("reads on a read-only device answered %v, want only 200s", reads)
	}
	var snap Snapshot
	get(t, c, hs.URL+"/metrics", &snap)
	if !snap.Degraded || snap.ReadOnlyRejects != int64(readOnly) || snap.InternalErrors != int64(codes[500]) {
		t.Fatalf("/metrics degraded=%v read_only_rejects=%d internal=%d, want degraded, %d, %d",
			snap.Degraded, snap.ReadOnlyRejects, snap.InternalErrors, readOnly, codes[500])
	}
}

// TestServeReadOnlyOutlivesRestart: the end of write life survives a
// power cut. A shard that ran out of free blocks is crashed on a read
// (CrashAtOp) and recovered in place (AutoRestart); recovery re-derives
// the FTL from the media, where nothing records the out-of-blocks
// latch, yet the next writes still answer 503 read_only and reads 200.
func TestServeReadOnlyOutlivesRestart(t *testing.T) {
	geo := smallFTL()
	geo.SpareBlocks = 1
	tenants := spreadTenants(4, geo.LogicalPages)
	const crashAt = 2500
	_, hs := newTestServer(t, Config{
		System: core.Baseline, PE: 6000, Seed: 11,
		FTL:         geo,
		Tenants:     tenants,
		Faults:      fault.Config{Seed: 1, Grown: fault.RateCurve{Base: 1}},
		CrashAtOp:   crashAt,
		AutoRestart: true,
	})
	c := hs.Client()
	rng := rand.New(rand.NewSource(1))
	op := 0
	url := func(kind string) string {
		op++
		return fmt.Sprintf("%s/v1/%s?tenant=%s&lpn=%d", hs.URL, kind, tenants[op%len(tenants)].Name, rng.Intn(512))
	}
	var er ErrorResponse
	for code := 200; code == 200; {
		if op == crashAt-1 {
			t.Fatalf("no write refused in %d ops; the shard no longer runs out of blocks before the crash", op)
		}
		er = ErrorResponse{}
		code = post(t, c, url("write"), &er)
	}
	if er.Code != CodeReadOnly || !strings.Contains(er.Message, "out of free blocks") {
		t.Fatalf("first refused write answered %q %q, want read_only out of free blocks", er.Code, er.Message)
	}
	for op < crashAt-1 {
		if code := get(t, c, url("read"), nil); code != 200 {
			t.Fatalf("read %d before the crash answered %d", op, code)
		}
	}
	er = ErrorResponse{}
	if code := get(t, c, url("read"), &er); code != 503 || er.Code != CodePowerLoss || !strings.Contains(er.Message, "recovered") {
		t.Fatalf("read at the crash answered %d %q %q, want 503 power_loss and recovery", code, er.Code, er.Message)
	}
	for i := 0; i < 20; i++ {
		er = ErrorResponse{}
		if code := post(t, c, url("write"), &er); code != 503 || er.Code != CodeReadOnly {
			t.Fatalf("write %d after the restart answered %d %q %q, want 503 read_only", i, code, er.Code, er.Message)
		}
		if code := get(t, c, url("read"), nil); code != 200 {
			t.Fatalf("read %d after the restart answered %d, want 200", i, code)
		}
	}
}

// TestServeDroppedWriteNotAcked: a write the device dropped — its
// program failed on every retry — is never acknowledged. The program
// checks after the 2048-page preload fail four times in a row: a
// one-page write then gets the typed 503 write_failed, a two-page
// write whose first page failed but whose second was stored gets the
// unacknowledged 500, and the next write that succeeds takes sequence 1.
func TestServeDroppedWriteNotAcked(t *testing.T) {
	for _, tc := range []struct {
		pages  int
		status int
		code   string
	}{
		{1, 503, CodeWriteFailed},
		{2, 500, CodeInternal},
	} {
		t.Run(fmt.Sprintf("pages=%d", tc.pages), func(t *testing.T) {
			var script []fault.ScriptEvent
			for i := int64(2048); i < 2052; i++ {
				script = append(script, fault.ScriptEvent{Op: fault.Program, Index: i})
			}
			_, hs := newTestServer(t, Config{
				System: core.Baseline, PE: 4000, Seed: 3,
				Faults: fault.Config{Script: script},
			})
			c := hs.Client()
			var body struct {
				ErrorResponse
				Seq uint64 `json:"seq"`
			}
			url := fmt.Sprintf("%s/v1/write?tenant=alpha&lpn=5&pages=%d", hs.URL, tc.pages)
			code := post(t, c, url, &body)
			if code != tc.status || body.Code != tc.code || body.Seq != 0 {
				t.Fatalf("dropped write answered %d %q seq %d (%s); want %d %q and no sequence",
					code, body.Code, body.Seq, body.Message, tc.status, tc.code)
			}
			var wr WriteResponse
			if code := post(t, c, hs.URL+"/v1/write?tenant=alpha&lpn=5", &wr); code != 200 || wr.Seq != 1 {
				t.Fatalf("next write answered %d seq %d, want 200 seq 1", code, wr.Seq)
			}
			var snap Snapshot
			get(t, c, hs.URL+"/metrics", &snap)
			if snap.InternalErrors != 1 || snap.Device.WriteFailures != 1 || snap.Tenants[0].AckSeq != 1 {
				t.Fatalf("/metrics internal=%d write_failures=%d alpha ack_seq=%d, want 1, 1, 1",
					snap.InternalErrors, snap.Device.WriteFailures, snap.Tenants[0].AckSeq)
			}
		})
	}
}

// TestServeCrashRestart: a scripted mid-serve power cut 503s the victim
// op (never acked), recovery runs through ftl.Recover, serving resumes,
// and no acknowledged write is lost — the journaled FTL still maps
// every acked page. Per-tenant ack sequences continue monotonically
// across the crash.
func TestServeCrashRestart(t *testing.T) {
	s, hs := newTestServer(t, Config{
		System: core.Baseline, PE: 4000, Seed: 13,
		CrashAtOp:   120,
		AutoRestart: true,
	})
	c := hs.Client()

	type acked struct {
		lpn uint64
		seq uint64
	}
	var acks []acked
	sawCrash := false
	var lastSeq uint64
	for i := 0; i < 240; i++ {
		var wr WriteResponse
		var er ErrorResponse
		u := fmt.Sprintf("%s/v1/write?tenant=alpha&lpn=%d", hs.URL, i%256)
		resp, err := c.Post(u, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case 200:
			json.NewDecoder(resp.Body).Decode(&wr)
			if wr.Seq <= lastSeq {
				t.Fatalf("ack seq %d after %d: sequence regressed across crash", wr.Seq, lastSeq)
			}
			lastSeq = wr.Seq
			acks = append(acks, acked{lpn: uint64(i % 256), seq: wr.Seq})
		case 503:
			json.NewDecoder(resp.Body).Decode(&er)
			if er.Code != CodePowerLoss {
				t.Fatalf("503 with code %q, want power_loss", er.Code)
			}
			sawCrash = true
		default:
			t.Fatalf("write returned %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !sawCrash {
		t.Fatal("scripted crash never surfaced")
	}
	if len(acks) == 0 {
		t.Fatal("no writes acknowledged")
	}
	snap := s.Snapshot()
	if snap.Device.Crashes != 1 {
		t.Fatalf("device crashed %d times, want 1", snap.Device.Crashes)
	}
	if snap.Device.RecoveryRecords == 0 && snap.Device.RecoveryReads == 0 {
		t.Fatal("recovery did no work; Restart not exercised")
	}

	// Drain, then audit durability: every acked write's page must still
	// be mapped by the recovered FTL.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	f := s.shards[0].runner.Device().FTL()
	base := s.Tenants()[0].Base
	for _, a := range acks {
		if _, _, ok := f.Lookup(base + a.lpn); !ok {
			t.Fatalf("acked write (lpn %d, seq %d) unmapped after recovery: acknowledged data lost",
				a.lpn, a.seq)
		}
	}
}

// TestServeDrain: Shutdown stops admission immediately (503 draining),
// lets already-admitted ops finish, writes the final snapshot exactly
// once, and unblocks every waiter.
func TestServeDrain(t *testing.T) {
	var snapMu sync.Mutex
	var snapData []byte
	s, hs := newTestServer(t, Config{
		System: core.Baseline, PE: 4000, Seed: 17,
		SnapshotPath: "final.json",
	})
	s.writeFile = func(path string, data []byte) error {
		snapMu.Lock()
		defer snapMu.Unlock()
		snapData = append([]byte(nil), data...)
		return nil
	}
	c := hs.Client()

	// Seed traffic so the snapshot has something to say.
	for i := 0; i < 32; i++ {
		if code := get(t, c, fmt.Sprintf("%s/v1/read?tenant=alpha&lpn=%d", hs.URL, i), nil); code != 200 {
			t.Fatalf("pre-drain read returned %d", code)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Post-drain requests are typed 503s.
	var er ErrorResponse
	if code := get(t, c, hs.URL+"/v1/read?tenant=alpha&lpn=1", &er); code != 503 || er.Code != CodeDraining {
		t.Fatalf("post-drain read returned %d/%q", code, er.Code)
	}
	if code := get(t, c, hs.URL+"/healthz", nil); code != 503 {
		t.Fatalf("draining /healthz returned %d", code)
	}
	// The final snapshot landed, parses, and matches the served load.
	snapMu.Lock()
	data := snapData
	snapMu.Unlock()
	if len(data) == 0 {
		t.Fatal("final snapshot never written")
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("final snapshot does not parse: %v", err)
	}
	if snap.Admitted != 32 || snap.Reads != 32 {
		t.Fatalf("final snapshot admitted/reads = %d/%d, want 32/32", snap.Admitted, snap.Reads)
	}
	if snap.P99 <= 0 {
		t.Fatal("final snapshot has no p99")
	}
	if _, ok := s.FinalSnapshot(); !ok {
		t.Fatal("FinalSnapshot unavailable after drain")
	}
	// Second Shutdown is a no-op that still returns promptly.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServeDrainCompletesInFlight: ops admitted before the drain flag
// flips are all answered (the sentinel is FIFO-ordered after them).
func TestServeDrainCompletesInFlight(t *testing.T) {
	s, hs := newTestServer(t, Config{System: core.Baseline, PE: 4000, Seed: 19})
	c := hs.Client()

	const n = 64
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Get(fmt.Sprintf("%s/v1/read?tenant=alpha&lpn=%d", hs.URL, i))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	// Drain while the burst is in flight.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		// Every request settles as served (200) or cleanly refused
		// (503 draining) — nothing hangs, nothing 5xxs unexpectedly.
		if code != 200 && code != 503 {
			t.Fatalf("in-flight request settled with %d", code)
		}
	}
}

// TestServeRateLimit: a per-tenant token bucket sheds the over-rate
// tenant while the in-budget tenant sails through.
func TestServeRateLimit(t *testing.T) {
	s, hs := newTestServer(t, Config{
		System: core.Baseline, PE: 4000, Seed: 23,
		// 1000 req/s of simulated time; SimGap 20µs models 50k offered.
		Rate:  1000,
		Burst: 4,
	})
	c := hs.Client()
	shed := 0
	for i := 0; i < 64; i++ {
		code := get(t, c, fmt.Sprintf("%s/v1/read?tenant=alpha&lpn=%d", hs.URL, i), nil)
		if code == 429 {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("rate limit never engaged")
	}
	snap := s.Snapshot()
	if snap.Tenants[0].Shed == 0 {
		t.Fatal("alpha shows no sheds")
	}
	if snap.Tenants[1].Shed != 0 {
		t.Fatal("idle tenant beta was shed")
	}
}
