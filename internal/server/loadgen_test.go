package server

import (
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexlevel/internal/core"
)

// TestLoadClosedLoop: the load generator completes its budget against a
// live server with zero unexpected statuses, its per-tenant ack audit
// holds (dense sequences: max == count, no duplicates), and the
// server's own counters agree with the client's.
func TestLoadClosedLoop(t *testing.T) {
	s, hs := newTestServer(t, Config{System: core.FlexLevel, PE: 5000, Seed: 37})
	res, err := Load(LoadConfig{
		BaseURL: hs.URL,
		Tenants: []LoadTenant{
			{Name: "alpha", Requests: 400, Window: 1024},
			{Name: "beta", Requests: 200, Window: 1024},
		},
		Workers:     4,
		ReadRatio:   0.7,
		MaxPages:    4,
		Seed:        1,
		BackoffBase: 200 * time.Microsecond,
		BackoffCap:  50 * time.Millisecond,
		MaxRetries:  8,
		Client:      hs.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 600 {
		t.Fatalf("completed %d/600 ops (failed=%d bad=%d)", res.OK, res.Failed, res.BadStatus)
	}
	if res.Status5xx != 0 || res.BadStatus != 0 {
		t.Fatalf("unexpected statuses: 5xx=%d bad=%d", res.Status5xx, res.BadStatus)
	}
	if res.SeqDuplicates != 0 {
		t.Fatalf("%d duplicate ack sequences", res.SeqDuplicates)
	}
	for name, max := range res.MaxSeq {
		if acks := res.WriteAcks[name]; max != uint64(acks) {
			t.Fatalf("tenant %s: max ack seq %d != acked writes %d (sequences not dense)",
				name, max, acks)
		}
	}
	snap := s.Snapshot()
	if snap.Admitted != res.OK {
		t.Fatalf("server admitted %d, client completed %d", snap.Admitted, res.OK)
	}
	if snap.Writes != res.WriteOK || snap.Reads != res.ReadOK {
		t.Fatalf("server reads/writes %d/%d != client %d/%d",
			snap.Reads, snap.Writes, res.ReadOK, res.WriteOK)
	}
}

// TestLoadBacksOffUnderOverload: against an overloaded server the
// generator retries shed responses with backoff and still completes its
// budget — the cooperative-client contract. The shed count proves the
// admission controller engaged; zero Status5xx proves shedding is typed
// 429, not a server error.
func TestLoadBacksOffUnderOverload(t *testing.T) {
	_, hs := newTestServer(t, Config{
		System: core.Baseline, PE: 4000, Seed: 41,
		QueueDepth: 1,
		SimGap:     time.Microsecond,
		SLOWait:    500 * time.Microsecond,
	})
	res, err := Load(LoadConfig{
		BaseURL: hs.URL,
		Tenants: []LoadTenant{{Name: "alpha", Requests: 300, Window: 1024}},
		Workers: 8, ReadRatio: 1.0, MaxPages: 4,
		Seed:        2,
		BackoffBase: 50 * time.Microsecond,
		BackoffCap:  2 * time.Millisecond,
		MaxRetries:  64,
		Client:      hs.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatal("overload produced no sheds; the test exercises nothing")
	}
	if res.Retries == 0 {
		t.Fatal("sheds were never retried")
	}
	if res.Status5xx != 0 {
		t.Fatalf("overload produced %d 5xx responses", res.Status5xx)
	}
	if res.OK+res.Failed+res.Deadline != 300 {
		t.Fatalf("ops unaccounted for: ok=%d failed=%d deadline=%d of 300",
			res.OK, res.Failed, res.Deadline)
	}
	if res.OK == 0 {
		t.Fatal("backoff never got an op through")
	}
}

// validLoad is a load config every field of which is in range. Its
// URL is a closed local port: a config that slips through validation
// fails to connect instead of reaching anything.
func validLoad() LoadConfig {
	return LoadConfig{
		BaseURL:     "http://127.0.0.1:1",
		Tenants:     []LoadTenant{{Name: "a", Requests: 10, Window: 16}},
		Workers:     1,
		ReadRatio:   0.5,
		MaxPages:    1,
		BackoffBase: time.Millisecond,
		BackoffCap:  time.Millisecond,
	}
}

// TestLoadValidation: structural errors fail fast.
func TestLoadValidation(t *testing.T) {
	c := validLoad()
	c.Tenants = nil
	if _, err := Load(c); err == nil {
		t.Fatal("empty tenant list accepted")
	}
	c = validLoad()
	c.Tenants[0].Window = 0
	if _, err := Load(c); err == nil {
		t.Fatal("zero window accepted")
	}
}

// TestLoadRefusesOutOfRange: Load keeps no defaults of its own. Every
// out-of-range field is refused with an error naming it instead of
// being rewritten, and the in-range edges run as given: a ReadRatio of
// 0 is a write-only run.
func TestLoadRefusesOutOfRange(t *testing.T) {
	for field, mutate := range map[string]func(*LoadConfig){
		"Workers":     func(c *LoadConfig) { c.Workers = 0 },
		"ReadRatio":   func(c *LoadConfig) { c.ReadRatio = 1.5 },
		"MaxPages":    func(c *LoadConfig) { c.MaxPages = 0 },
		"BackoffBase": func(c *LoadConfig) { c.BackoffBase = 0 },
		"BackoffCap":  func(c *LoadConfig) { c.BackoffCap = c.BackoffBase / 2 },
		"MaxRetries":  func(c *LoadConfig) { c.MaxRetries = -1 },
	} {
		c := validLoad()
		mutate(&c)
		if _, err := Load(c); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("out-of-range %s: err = %v, want an error naming it", field, err)
		}
	}
	c := validLoad()
	c.ReadRatio = math.NaN()
	if _, err := Load(c); err == nil {
		t.Error("NaN ReadRatio accepted")
	}

	s, hs := newTestServer(t, Config{System: core.Baseline, PE: 4000, Seed: 5})
	c = validLoad()
	c.BaseURL, c.Client = hs.URL, hs.Client()
	c.Tenants = []LoadTenant{{Name: "alpha", Requests: 50, Window: 1024}}
	c.ReadRatio = 0
	res, err := Load(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadOK != 0 || res.WriteOK != 50 {
		t.Fatalf("write-only run completed %d reads and %d writes, want 0 and 50", res.ReadOK, res.WriteOK)
	}
	if snap := s.Snapshot(); snap.Reads != 0 {
		t.Fatalf("write-only run served %d reads", snap.Reads)
	}
}

// TestLoadReusesConnections pins the client-bottleneck fix: with
// LoadTransport's idle pool sized to the worker fleet, every TCP
// connection dialed during warmup is kept alive and reused — a second,
// larger run dials zero new connections. (The stock
// http.DefaultClient caps idle conns per host at 2, so >2 workers
// churn dials and the generator measures its own handshakes.)
func TestLoadReusesConnections(t *testing.T) {
	_, hs := newTestServer(t, Config{System: core.FlexLevel, PE: 5000, Seed: 7})
	const workers = 8
	tenants := []LoadTenant{
		{Name: "alpha", Requests: workers * 4, Window: 1024},
		{Name: "beta", Requests: workers * 4, Window: 1024},
	}
	tr := LoadTransport(workers * len(tenants))
	var dials int64
	inner := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		atomic.AddInt64(&dials, 1)
		return inner(ctx, network, addr)
	}
	client := &http.Client{Transport: tr}
	run := func(scale int) {
		ts := make([]LoadTenant, len(tenants))
		copy(ts, tenants)
		for i := range ts {
			ts[i].Requests *= scale
		}
		res, err := Load(LoadConfig{
			BaseURL: hs.URL, Tenants: ts, Workers: workers,
			ReadRatio: 0.7, MaxPages: 4, Seed: 5, Client: client,
			BackoffBase: 200 * time.Microsecond, BackoffCap: 50 * time.Millisecond, MaxRetries: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed > 0 || res.BadStatus > 0 {
			t.Fatalf("run failed: %+v", res)
		}
	}
	// Warmup opens the whole fleet: one request per worker, each holding
	// its response until all have one, needs one connection per worker.
	// A short load run alone may never have every worker in flight at
	// once, leaving the second run to dial the rest.
	fleet := tr.MaxConnsPerHost
	var responded, finished sync.WaitGroup
	responded.Add(fleet)
	finished.Add(fleet)
	for i := 0; i < fleet; i++ {
		go func() {
			defer finished.Done()
			resp, err := client.Get(hs.URL + "/healthz")
			responded.Done()
			if err != nil {
				t.Error(err)
				return
			}
			responded.Wait()
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	finished.Wait()
	run(1)
	warm := atomic.LoadInt64(&dials)
	if warm == 0 {
		t.Fatal("warmup run dialed nothing")
	}
	if warm > int64(workers*len(tenants)) {
		t.Fatalf("warmup dialed %d conns for %d workers: pool not holding", warm, workers*len(tenants))
	}
	run(4) // 4x the traffic, same concurrency: all conns come from the pool
	if extra := atomic.LoadInt64(&dials) - warm; extra != 0 {
		t.Fatalf("%d extra dials after warmup: connections not reused", extra)
	}
}

// BenchmarkServeRead measures the end-to-end server read path — HTTP
// handler, admission, engine hop, simulated device — the serve IOPS
// baseline the CI bench gate tracks.
func BenchmarkServeRead(b *testing.B) {
	s, err := New(Config{
		System: core.FlexLevel, PE: 5000, Seed: 43,
		FTL:     smallFTL(),
		Tenants: testTenants(),
	})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	c := hs.Client()
	url := hs.URL + "/v1/read?tenant=alpha&lpn=7"
	get := func() {
		resp, err := c.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("read returned %d", resp.StatusCode)
		}
	}
	// Warm the connection pool and the engine, then amortize each
	// iteration over a batch: at CI's -benchtime 3x a single-request
	// iteration is dominated by cold-start jitter.
	const batch = 32
	for i := 0; i < batch; i++ {
		get()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			get()
		}
	}
}
