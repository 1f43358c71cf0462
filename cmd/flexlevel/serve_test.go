package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"flexlevel/internal/core"
	"flexlevel/internal/ftl"
	"flexlevel/internal/server"
	"flexlevel/internal/trace"
)

// TestParseServeFlags: the serve flag surface maps onto server.Config.
func TestParseServeFlags(t *testing.T) {
	o, err := parseServe([]string{
		"-addr", "127.0.0.1:0", "-system", "baseline", "-pe", "4000",
		"-seed", "9", "-qd", "3", "-maxqueue", "10", "-rate", "2500",
		"-slo", "2ms", "-deadline", "5ms", "-simgap", "10us",
		"-faults", "2", "-crash-at", "77", "-auto-restart",
		"-snapshot", "/tmp/x.json", "-drain-timeout", "5s",
	})
	if err != nil {
		t.Fatal(err)
	}
	c := o.cfg
	if c.System != core.Baseline || c.PE != 4000 || c.Seed != 9 ||
		c.QueueDepth != 3 || c.MaxQueue != 10 || c.Rate != 2500 ||
		c.SLOWait != 2*time.Millisecond || c.Deadline != 5*time.Millisecond ||
		c.SimGap != 10*time.Microsecond || c.CrashAtOp != 77 || !c.AutoRestart ||
		c.SnapshotPath != "/tmp/x.json" {
		t.Fatalf("flags lost in parse: %+v", c)
	}
	if c.Faults.Read.Base == 0 && c.Faults.Read.Amp == 0 {
		t.Fatal("-faults 2 left the fault curves empty")
	}
	if o.addr != "127.0.0.1:0" || o.drainTimeout != 5*time.Second {
		t.Fatalf("addr/drain lost: %+v", o)
	}
	if _, err := parseServe([]string{"-system", "nope"}); err == nil {
		t.Fatal("unknown system accepted")
	}
	o, err = parseServe([]string{"-shards", "4", "-crash-shard", "2", "-pprof"})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Shards != 4 || o.cfg.CrashShard != 2 || !o.pprof {
		t.Fatalf("shard/pprof flags lost in parse: %+v", o)
	}
}

// TestParseLoadSplitsBudget: -n splits across the default tenant mix by
// weight, exactly: each tenant gets its floored share or one more.
func TestParseLoadSplitsBudget(t *testing.T) {
	o, err := parseLoad([]string{"-n", "1000", "-workers", "2", "-seed", "5"})
	if err != nil {
		t.Fatal(err)
	}
	specs := trace.DefaultTenants(core.DefaultOptions(core.FlexLevel, 6000).SSD.FTL.LogicalPages)
	if len(o.cfg.Tenants) != len(specs) {
		t.Fatalf("%d load tenants for %d specs", len(o.cfg.Tenants), len(specs))
	}
	var total, weight int
	for _, s := range specs {
		weight += s.Weight
	}
	for i, lt := range o.cfg.Tenants {
		if lt.Name != specs[i].Name || lt.Window != specs[i].WorkingSet {
			t.Fatalf("tenant %d: %+v does not match spec %+v", i, lt, specs[i])
		}
		total += lt.Requests
		if share := 1000 * specs[i].Weight / weight; lt.Requests != share && lt.Requests != share+1 {
			t.Fatalf("tenant %s budget %d, want weighted share %d or one more", lt.Name, lt.Requests, share)
		}
	}
	if total != 1000 {
		t.Fatalf("budgets sum to %d, want exactly 1000", total)
	}
}

// TestParseLoadSplitsLikeScenario: load splits -n by the rule scenario
// uses (trace.TenantCounts), which hands the flooring remainder to the
// earliest tenants: 10 requests over weights 4/2/2 are 6/2/2.
func TestParseLoadSplitsLikeScenario(t *testing.T) {
	tenants := trace.DefaultTenants(2048)[:3]
	for i, w := range []int{4, 2, 2} {
		tenants[i].Weight = w
	}
	specPath := filepath.Join(t.TempDir(), "tenants.csv")
	f, err := os.Create(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteScenarioSpec(f, tenants); err != nil {
		t.Fatal(err)
	}
	f.Close()
	o, err := parseLoad([]string{"-tenants", specPath, "-n", "10"})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, lt := range o.cfg.Tenants {
		got = append(got, lt.Requests)
	}
	if want := []int{6, 2, 2}; !slices.Equal(got, want) {
		t.Fatalf("budgets %v, want %v", got, want)
	}
}

// TestGateLoad: each budget violation trips the gate; a clean run passes.
func TestGateLoad(t *testing.T) {
	clean := server.LoadResult{
		Sent: 100, OK: 100, Shed: 10,
		MaxSeq:    map[string]uint64{"a": 30},
		WriteAcks: map[string]int64{"a": 30},
	}
	if err := gateLoad(clean, 0.5); err != nil {
		t.Fatalf("clean run tripped the gate: %v", err)
	}
	for name, mutate := range map[string]func(*server.LoadResult){
		"5xx":       func(r *server.LoadResult) { r.Status5xx = 1 },
		"bad":       func(r *server.LoadResult) { r.BadStatus = 1 },
		"failed":    func(r *server.LoadResult) { r.Failed = 1 },
		"dup-seq":   func(r *server.LoadResult) { r.SeqDuplicates = 1 },
		"non-dense": func(r *server.LoadResult) { r.MaxSeq["a"] = 31 },
		"shed-rate": func(r *server.LoadResult) { r.Shed = 60 },
	} {
		r := clean
		r.MaxSeq = map[string]uint64{"a": 30}
		mutate(&r)
		if err := gateLoad(r, 0.5); err == nil {
			t.Fatalf("%s violation passed the gate", name)
		}
	}
}

// TestServePprofSmoke: -pprof mounts the profiling endpoints, and a
// 1-second CPU profile can be fetched while the server is under load —
// the workflow an operator uses to see where serve time goes. Without
// the flag the endpoints must not exist.
func TestServePprofSmoke(t *testing.T) {
	small := &ftl.Config{
		LogicalPages: 2048, PagesPerBlock: 16, Blocks: 176,
		ReducedFactor: 0.75, GCThreshold: 3, GCTarget: 4,
	}
	tenants := trace.DefaultTenants(2048)
	boot := func(pprof bool) (string, context.CancelFunc, chan error) {
		o := serveOpts{
			addr: "127.0.0.1:0",
			cfg: server.Config{
				System: core.FlexLevel, PE: 5000, Seed: 7,
				FTL: small, Tenants: tenants, Shards: 2,
			},
			drainTimeout: 20 * time.Second,
			pprof:        pprof,
		}
		ctx, cancel := context.WithCancel(context.Background())
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() { done <- runServe(ctx, o, ready) }()
		select {
		case addr := <-ready:
			return addr, cancel, done
		case err := <-done:
			t.Fatalf("serve exited before ready: %v", err)
			return "", cancel, done
		}
	}
	stop := func(cancel context.CancelFunc, done chan error) {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("drain failed: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("serve did not drain")
		}
	}

	addr, cancel, done := boot(true)
	// Keep the server busy while the profile samples.
	loadDone := make(chan error, 1)
	go func() {
		_, err := server.Load(server.LoadConfig{
			BaseURL: "http://" + addr,
			Tenants: []server.LoadTenant{
				{Name: tenants[0].Name, Requests: 20000, Window: tenants[0].WorkingSet},
			},
			Workers: 4, ReadRatio: 0.8, MaxPages: 4, Seed: 3,
			BackoffBase: 200 * time.Microsecond, BackoffCap: 50 * time.Millisecond, MaxRetries: 8,
		})
		loadDone <- err
	}()
	resp, err := http.Get("http://" + addr + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("profile fetch: status %d, err %v", resp.StatusCode, err)
	}
	if len(prof) == 0 {
		t.Fatal("CPU profile is empty")
	}
	if err := <-loadDone; err != nil {
		t.Fatal(err)
	}
	stop(cancel, done)

	addr, cancel, done = boot(false)
	resp, err = http.Get("http://" + addr + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("pprof endpoints reachable without -pprof")
	}
	stop(cancel, done)
}

// TestServeLoadRoundTrip is the end-to-end smoke: boot the serve path
// in process on a small device, drive it with the load client through
// the same tenant spec file both sides would share in production, gate
// the result, then cancel (the SIGTERM path) and check the drain wrote
// the final snapshot.
func TestServeLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "final.json")
	tenants := trace.DefaultTenants(2048)
	specPath := filepath.Join(dir, "tenants.csv")
	f, err := os.Create(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteScenarioSpec(f, tenants); err != nil {
		t.Fatal(err)
	}
	f.Close()

	o := serveOpts{
		addr: "127.0.0.1:0",
		cfg: server.Config{
			System: core.FlexLevel, PE: 5000, Seed: 7,
			FTL: &ftl.Config{
				LogicalPages: 2048, PagesPerBlock: 16, Blocks: 176,
				ReducedFactor: 0.75, GCThreshold: 3, GCTarget: 4,
			},
			Tenants:      tenants,
			SnapshotPath: snapPath,
		},
		drainTimeout: 20 * time.Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- runServe(ctx, o, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("serve exited before ready: %v", err)
	}

	lo, err := parseLoad([]string{
		"-url", "http://" + addr, "-tenants", specPath,
		"-n", "400", "-workers", "4", "-seed", "11", "-gate",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := server.Load(lo.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK == 0 {
		t.Fatal("load completed nothing")
	}
	if err := gateLoad(res, lo.maxShedRate); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain")
	}
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("final snapshot missing: %v", err)
	}
	var snap server.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("final snapshot unparsable: %v", err)
	}
	if !snap.Draining || snap.Admitted != res.OK {
		t.Fatalf("snapshot admitted=%d draining=%v, client completed %d",
			snap.Admitted, snap.Draining, res.OK)
	}
}
