// The closed-loop load generator behind `flexlevel load` and the CI
// load-smoke gate. Each worker keeps exactly one request outstanding
// against its tenant (closed loop: the next request is issued only when
// the previous one settles), retrying shed and retryable errors with
// capped exponential backoff plus jitter — the cooperative client the
// admission controller is designed against. Results aggregate into a
// LoadResult the caller gates on: shed rate, 5xx count, per-tenant ack
// sequence continuity.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// LoadConfig parameterizes a load run.
type LoadConfig struct {
	BaseURL string
	// Tenants lists target tenant names with their request budget and
	// address-space size (the tenant's WorkingSet).
	Tenants []LoadTenant
	// Workers is the closed-loop worker count per tenant, at least 1.
	Workers int
	// ReadRatio is the read fraction of generated ops, in [0, 1].
	ReadRatio float64
	// MaxPages bounds each op's page count (uniform in [1, MaxPages]).
	MaxPages int
	// Seed drives every worker's generator (worker seeds derive from it).
	Seed int64
	// BackoffBase/BackoffCap shape the retry backoff: attempt n sleeps
	// min(cap, base·2ⁿ) scaled by a uniform jitter in [0.5, 1). Both are
	// positive and BackoffCap >= BackoffBase.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// MaxRetries bounds retries per op (0 retries none); past it the op
	// counts as Failed.
	MaxRetries int
	// Client overrides the HTTP client (tests inject the httptest one).
	// Nil gets NewLoadClient sized to the run's total worker count, so
	// benchmarks measure the server, not TCP connection setup.
	Client *http.Client
}

// LoadTransport returns an http.Transport tuned for a closed-loop run
// with the given total worker concurrency. The default transport caps
// idle connections per host at 2, so any generator with more than two
// workers churns through TCP dials — handshake latency lands in every
// sample and the benchmark measures the client's socket setup instead
// of the server. Sizing the idle pool to the concurrency (with
// headroom for retry bursts) means every connection dialed during
// warmup is kept and reused: zero extra dials after warmup, which
// TestLoadReusesConnections pins. MaxConnsPerHost holds the fleet to
// one connection per worker: net/http pools a connection only after the
// caller has seen EOF, so without the cap a worker's next request could
// dial instead of waiting for its own connection to come back.
func LoadTransport(concurrency int) *http.Transport {
	if concurrency < 1 {
		concurrency = 1
	}
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   30 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxConnsPerHost:     concurrency,
		MaxIdleConns:        2 * concurrency,
		MaxIdleConnsPerHost: 2 * concurrency,
		IdleConnTimeout:     90 * time.Second,
	}
}

// NewLoadClient wraps LoadTransport in an http.Client — the client
// Load builds for itself when LoadConfig.Client is nil.
func NewLoadClient(concurrency int) *http.Client {
	return &http.Client{Transport: LoadTransport(concurrency)}
}

// LoadTenant is one target tenant.
type LoadTenant struct {
	Name     string
	Requests int    // ops this tenant's workers complete in total
	Window   uint64 // addressable pages (tenant-relative LPN space)
}

// LoadResult aggregates a run.
type LoadResult struct {
	Sent      int64 `json:"sent"` // HTTP round trips, retries included
	OK        int64 `json:"ok"`
	ReadOK    int64 `json:"read_ok"`
	WriteOK   int64 `json:"write_ok"`
	Shed      int64 `json:"shed"`     // 429 responses observed
	Deadline  int64 `json:"deadline"` // 504 responses observed
	Retryable int64 `json:"retryable_503"`
	Failed    int64 `json:"failed"` // ops abandoned after MaxRetries
	BadStatus int64 `json:"bad_status"`
	Status5xx int64 `json:"status_5xx"` // 5xx other than typed-retryable 503s
	Retries   int64 `json:"retries"`

	// MaxSeq is each tenant's highest acknowledged write sequence and
	// WriteAcks its acked-write count. The server assigns sequences
	// densely (1, 2, 3, ... per tenant, surviving crashes), so for a
	// fresh server MaxSeq == WriteAcks even though concurrent workers
	// observe acks out of order; SeqDuplicates counts repeated or zero
	// sequences — always a server bug, must be zero.
	MaxSeq        map[string]uint64 `json:"max_seq"`
	WriteAcks     map[string]int64  `json:"write_acks"`
	SeqDuplicates int64             `json:"seq_duplicates"`

	WallSeconds float64 `json:"wall_seconds"`
}

// validate refuses a config Load cannot run as given, naming the field.
func (c LoadConfig) validate() error {
	switch {
	case len(c.Tenants) == 0:
		return fmt.Errorf("server: load needs at least one tenant")
	case c.Workers < 1:
		return fmt.Errorf("server: load Workers %d, want >= 1", c.Workers)
	case !(c.ReadRatio >= 0 && c.ReadRatio <= 1):
		return fmt.Errorf("server: load ReadRatio %g, want within [0, 1]", c.ReadRatio)
	case c.MaxPages < 1:
		return fmt.Errorf("server: load MaxPages %d, want >= 1", c.MaxPages)
	case c.BackoffBase <= 0:
		return fmt.Errorf("server: load BackoffBase %v, want > 0", c.BackoffBase)
	case c.BackoffCap < c.BackoffBase:
		return fmt.Errorf("server: load BackoffCap %v, want >= BackoffBase %v", c.BackoffCap, c.BackoffBase)
	case c.MaxRetries < 0:
		return fmt.Errorf("server: load MaxRetries %d, want >= 0", c.MaxRetries)
	}
	for _, t := range c.Tenants {
		if t.Window == 0 || t.Requests < 0 {
			return fmt.Errorf("server: load tenant %q needs a window and a request budget", t.Name)
		}
	}
	return nil
}

// loadAgg collects worker outcomes under one mutex.
type loadAgg struct {
	mu  sync.Mutex
	res LoadResult
	// seen tracks each tenant's acked sequences for duplicate detection.
	seen map[string]map[uint64]struct{}
}

// Load runs the closed-loop generator and returns the aggregate.
func Load(cfg LoadConfig) (LoadResult, error) {
	if err := cfg.validate(); err != nil {
		return LoadResult{}, err
	}
	if cfg.Client == nil {
		// One closed-loop worker per tenant per Workers slot: size the
		// connection pool to the whole fleet.
		cfg.Client = NewLoadClient(cfg.Workers * len(cfg.Tenants))
	}
	agg := &loadAgg{seen: make(map[string]map[uint64]struct{})}
	agg.res.MaxSeq = make(map[string]uint64)
	agg.res.WriteAcks = make(map[string]int64)
	start := time.Now()
	var wg sync.WaitGroup
	for ti, t := range cfg.Tenants {
		per := t.Requests / cfg.Workers
		extra := t.Requests % cfg.Workers
		for w := 0; w < cfg.Workers; w++ {
			budget := per
			if w < extra {
				budget++
			}
			if budget == 0 {
				continue
			}
			wg.Add(1)
			seed := cfg.Seed + int64(ti)*1_000_003 + int64(w)*7919
			go func(t LoadTenant, budget int, seed int64) {
				defer wg.Done()
				loadWorker(cfg, t, budget, seed, agg)
			}(t, budget, seed)
		}
	}
	wg.Wait()
	agg.res.WallSeconds = time.Since(start).Seconds()
	return agg.res, nil
}

// loadWorker completes budget ops against one tenant, closed-loop.
func loadWorker(cfg LoadConfig, t LoadTenant, budget int, seed int64, agg *loadAgg) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < budget; i++ {
		write := rng.Float64() >= cfg.ReadRatio
		pages := 1 + rng.Intn(cfg.MaxPages)
		if uint64(pages) > t.Window {
			pages = int(t.Window)
		}
		lpn := uint64(rng.Int63n(int64(t.Window - uint64(pages) + 1)))
		runLoadOp(cfg, t, write, lpn, pages, rng, agg)
	}
}

// runLoadOp issues one op, retrying shed/retryable outcomes with capped
// exponential backoff + jitter.
func runLoadOp(cfg LoadConfig, t LoadTenant, write bool, lpn uint64, pages int, rng *rand.Rand, agg *loadAgg) {
	path := "/v1/read"
	method := http.MethodGet
	if write {
		path = "/v1/write"
		method = http.MethodPost
	}
	u := fmt.Sprintf("%s%s?tenant=%s&lpn=%d&pages=%d",
		cfg.BaseURL, path, url.QueryEscape(t.Name), lpn, pages)
	for attempt := 0; ; attempt++ {
		status, body, err := doRequest(cfg.Client, method, u)
		agg.mu.Lock()
		agg.res.Sent++
		agg.mu.Unlock()
		if err != nil {
			// Transport errors (server drained mid-flight) retry like 503s.
			status = 0
		}
		switch {
		case status == http.StatusOK:
			agg.settleOK(t.Name, write, body)
			return
		case status == http.StatusTooManyRequests:
			agg.count(func(r *LoadResult) { r.Shed++ })
		case status == http.StatusGatewayTimeout:
			// A blown deadline is a final per-op outcome, not retryable:
			// the client's time budget is spent.
			agg.count(func(r *LoadResult) { r.Deadline++ })
			return
		case status == http.StatusServiceUnavailable, status == 0:
			agg.count(func(r *LoadResult) { r.Retryable++ })
		default:
			agg.count(func(r *LoadResult) {
				r.BadStatus++
				if status >= 500 {
					r.Status5xx++
				}
			})
			return
		}
		if attempt >= cfg.MaxRetries {
			agg.count(func(r *LoadResult) { r.Failed++ })
			return
		}
		agg.count(func(r *LoadResult) { r.Retries++ })
		backoff := cfg.BackoffBase << uint(attempt)
		if backoff > cfg.BackoffCap || backoff <= 0 {
			backoff = cfg.BackoffCap
		}
		// Jitter in [0.5, 1): desynchronizes retry herds.
		time.Sleep(time.Duration(float64(backoff) * (0.5 + rng.Float64()/2)))
	}
}

func doRequest(client *http.Client, method, u string) (int, []byte, error) {
	req, err := http.NewRequest(method, u, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	return resp.StatusCode, body, err
}

func (a *loadAgg) count(f func(*LoadResult)) {
	a.mu.Lock()
	f(&a.res)
	a.mu.Unlock()
}

// settleOK records a success and audits write-ack uniqueness.
func (a *loadAgg) settleOK(tenant string, write bool, body []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.res.OK++
	if !write {
		a.res.ReadOK++
		return
	}
	a.res.WriteOK++
	var wr WriteResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		a.res.BadStatus++
		return
	}
	a.res.WriteAcks[tenant]++
	seen := a.seen[tenant]
	if seen == nil {
		seen = make(map[uint64]struct{})
		a.seen[tenant] = seen
	}
	if _, dup := seen[wr.Seq]; dup || wr.Seq == 0 {
		a.res.SeqDuplicates++
	}
	seen[wr.Seq] = struct{}{}
	if wr.Seq > a.res.MaxSeq[tenant] {
		a.res.MaxSeq[tenant] = wr.Seq
	}
}
