// Tests for the sharded serve path: placement laws (deterministic,
// in range, monotone in the window base), multi-shard integration over real
// HTTP, crash isolation (a power loss on one shard loses no acked
// write anywhere and keeps every tenant's ack sequence dense), and the
// single-shard snapshot staying free of shard-only fields.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"flexlevel/internal/core"
	"flexlevel/internal/trace"
)

// spreadTenants builds one tenant per shard-sized stripe of a
// logicalPages device, so every engine of an n-shard server owns
// exactly one tenant — the even layout the scaling benchmark uses.
func spreadTenants(n int, logicalPages uint64) []trace.TenantSpec {
	per := logicalPages / uint64(n)
	ts := make([]trace.TenantSpec, n)
	for i := range ts {
		ts[i] = trace.TenantSpec{
			Name: fmt.Sprintf("t%d", i), Weight: 1, Model: trace.SteadyModel,
			ReadRatio: 0.8, ZipfS: 1.2,
			Base: uint64(i) * per, WorkingSet: per, MeanPages: 1,
		}
	}
	return ts
}

// TestShardRoutingProperties: tenant placement is a pure function of
// (base, logical pages, shards) — deterministic, in [0, N), the rule
// min(base / ceil(L/N), N-1), and non-decreasing in base — New places
// every tenant by it, and a shard with no tenant still drains on
// Shutdown.
func TestShardRoutingProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		shards := 1 + rng.Intn(9)
		logical := uint64(1 + rng.Intn(1<<16))
		per := (logical + uint64(shards) - 1) / uint64(shards)
		bases := make([]uint64, 1+rng.Intn(20))
		for i := range bases {
			bases[i] = uint64(rng.Int63n(int64(logical)))
		}
		sort.Slice(bases, func(a, b int) bool { return bases[a] < bases[b] })
		prev := 0
		for _, base := range bases {
			k := shardOf(base, logical, shards)
			if k < 0 || k >= shards {
				t.Fatalf("shards=%d logical=%d: base %d placed on %d, outside [0,%d)", shards, logical, base, k, shards)
			}
			if k2 := shardOf(base, logical, shards); k2 != k {
				t.Fatalf("placement nondeterministic: base %d -> %d vs %d", base, k, k2)
			}
			if base < uint64(k)*per || (k < shards-1 && base >= uint64(k+1)*per) {
				t.Fatalf("shards=%d logical=%d: base %d on shard %d, outside its range of %d pages", shards, logical, base, k, per)
			}
			if k < prev {
				t.Fatalf("placement decreasing: base %d -> shard %d after shard %d", base, k, prev)
			}
			prev = k
		}
	}

	// Two tenants on four shards: New places each by its base, and the
	// two shards nobody owns still take the drain sentinel.
	s, err := New(Config{System: core.Baseline, PE: 4000, Seed: 5, FTL: smallFTL(), Tenants: testTenants(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, ten := range s.tenants {
		if want := shardOf(ten.spec.Base, 2048, 4); ten.shard != s.shards[want] {
			t.Fatalf("tenant %d (base %d) on shard %d, want %d", i, ten.spec.Base, ten.shard.id, want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with idle shards: %v", err)
	}
	if snap, ok := s.FinalSnapshot(); !ok || len(snap.ShardDevices) != 4 {
		t.Fatalf("final snapshot %v with %d shard devices, want 4", ok, len(snap.ShardDevices))
	}
}

// TestServeShardedReadWrite: a 4-shard server with one tenant per
// shard serves reads and writes on every shard; the merged snapshot
// carries the per-shard views, aggregate counters equal the sum of
// tenant counters, and every tenant's ack sequence is dense.
func TestServeShardedReadWrite(t *testing.T) {
	tenants := spreadTenants(4, 2048)
	s, hs := newTestServer(t, Config{
		System: core.FlexLevel, PE: 5000, Seed: 21,
		Shards:  4,
		Tenants: tenants,
	})
	if len(s.shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(s.shards))
	}
	onShard := make(map[int]bool)
	for _, ten := range s.tenants {
		onShard[ten.shard.id] = true
	}
	if len(onShard) != 4 {
		t.Fatalf("tenants cover %d shards, want all 4", len(onShard))
	}
	c := hs.Client()
	writes := make(map[string]int)
	for i := 0; i < 200; i++ {
		name := tenants[i%4].Name
		if i%5 == 0 {
			var wr WriteResponse
			u := fmt.Sprintf("%s/v1/write?tenant=%s&lpn=%d", hs.URL, name, i%256)
			if code := post(t, c, u, &wr); code != 200 {
				t.Fatalf("write %d returned %d", i, code)
			}
			writes[name]++
			if wr.Seq != uint64(writes[name]) {
				t.Fatalf("tenant %s ack seq %d after %d writes: not dense", name, wr.Seq, writes[name])
			}
		} else {
			u := fmt.Sprintf("%s/v1/read?tenant=%s&lpn=%d", hs.URL, name, i%256)
			if code := get(t, c, u, nil); code != 200 {
				t.Fatalf("read %d returned %d", i, code)
			}
		}
	}
	snap := s.Snapshot()
	if snap.Admitted != 200 {
		t.Fatalf("admitted %d, want 200", snap.Admitted)
	}
	if snap.Shards != 4 || len(snap.ShardSimTimeSeconds) != 4 || len(snap.ShardDevices) != 4 {
		t.Fatalf("sharded snapshot missing per-shard views: shards=%d simtimes=%d devices=%d",
			snap.Shards, len(snap.ShardSimTimeSeconds), len(snap.ShardDevices))
	}
	for k, sec := range snap.ShardSimTimeSeconds {
		if sec <= 0 {
			t.Fatalf("shard %d sim clock never advanced", k)
		}
	}
	if snap.IOPS <= 0 {
		t.Fatal("aggregate IOPS not reported")
	}
	var tenantAdmitted int64
	for _, ts := range snap.Tenants {
		tenantAdmitted += ts.Admitted
	}
	if tenantAdmitted != snap.Admitted {
		t.Fatalf("tenant admitted sum %d != aggregate %d", tenantAdmitted, snap.Admitted)
	}
}

// TestServeShardedCrashIsolation is the zero-acked-write-loss property
// across shards: a scripted power loss on shard 1 surfaces only to the
// tenant on that shard, every other shard keeps serving 200s
// throughout, ack sequences stay dense per tenant, and after drain
// every acknowledged write on EVERY shard is still mapped by its
// shard's (possibly recovered) FTL.
func TestServeShardedCrashIsolation(t *testing.T) {
	tenants := spreadTenants(4, 2048)
	const crashShard = 1
	s, hs := newTestServer(t, Config{
		System: core.Baseline, PE: 4000, Seed: 13,
		Shards:      4,
		Tenants:     tenants,
		CrashAtOp:   30,
		CrashShard:  crashShard,
		AutoRestart: true,
	})
	c := hs.Client()

	type acked struct {
		tenant int
		lpn    uint64
		seq    uint64
	}
	var acks []acked
	lastSeq := make([]uint64, len(tenants))
	sawCrash := false
	for i := 0; i < 320; i++ {
		ti := i % 4
		var wr WriteResponse
		var er ErrorResponse
		u := fmt.Sprintf("%s/v1/write?tenant=%s&lpn=%d", hs.URL, tenants[ti].Name, i%256)
		resp, err := c.Post(u, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case 200:
			json.NewDecoder(resp.Body).Decode(&wr)
			if wr.Seq != lastSeq[ti]+1 {
				t.Fatalf("tenant %s ack seq %d after %d: not dense across crash",
					tenants[ti].Name, wr.Seq, lastSeq[ti])
			}
			lastSeq[ti] = wr.Seq
			acks = append(acks, acked{tenant: ti, lpn: uint64(i % 256), seq: wr.Seq})
		case 503:
			json.NewDecoder(resp.Body).Decode(&er)
			if er.Code != CodePowerLoss {
				t.Fatalf("503 with code %q, want power_loss", er.Code)
			}
			if ti != crashShard {
				t.Fatalf("tenant %s (shard %d) saw the shard-%d power loss",
					tenants[ti].Name, s.tenants[ti].shard.id, crashShard)
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

	snap := s.Snapshot()
	if snap.Device.Crashes != 1 {
		t.Fatalf("merged telemetry reports %d crashes, want exactly 1", snap.Device.Crashes)
	}
	if snap.ShardDevices[crashShard].Crashes != 1 {
		t.Fatalf("crash attributed to the wrong shard: %+v", snap.ShardDevices[crashShard].Crashes)
	}
	for k, m := range snap.ShardDevices {
		if k != crashShard && m.Crashes != 0 {
			t.Fatalf("shard %d reports %d crashes, want 0", k, m.Crashes)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Durability audit on every shard, not just the crashed one.
	for _, a := range acks {
		f := s.tenants[a.tenant].shard.runner.Device().FTL()
		lpn := tenants[a.tenant].Base + a.lpn
		if _, _, ok := f.Lookup(lpn); !ok {
			t.Fatalf("acked write (tenant %s, lpn %d, seq %d) unmapped after the shard-%d crash: acknowledged data lost",
				tenants[a.tenant].Name, a.lpn, a.seq, crashShard)
		}
	}
}

// TestSnapshotSingleShardHasNoShardFields: with Shards=1 none of the
// snapshot JSON's shard-only keys appear, so existing scrapers and the
// CI greps see byte-compatible output.
func TestSnapshotSingleShardHasNoShardFields(t *testing.T) {
	s, hs := newTestServer(t, Config{System: core.FlexLevel, PE: 5000, Seed: 3})
	c := hs.Client()
	for i := 0; i < 32; i++ {
		u := fmt.Sprintf("%s/v1/read?tenant=alpha&lpn=%d", hs.URL, i)
		if code := get(t, c, u, nil); code != 200 {
			t.Fatalf("read returned %d", code)
		}
	}
	data, err := s.Snapshot().marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"\"shards\"", "\"shard_sim_time_seconds\"", "\"shard_devices\""} {
		if strings.Contains(string(data), key) {
			t.Fatalf("single-shard snapshot leaked %s:\n%s", key, data)
		}
	}
}

// BenchmarkServeReadParallel is the scaling benchmark the CI bench
// gate tracks: the same read workload over four tenants, served by one
// engine vs four. The host may have a single core, so the comparison
// is made in the simulation's own terms — each engine's clock charges
// SimGap per admitted op, so aggregate simulated IOPS (reported as
// "sim_iops") is the modeled capacity of the sharded device: N busy
// shards sustain N× one engine's rate. Wall-clock ns/op is reported
// too and shows the same ratio on a multi-core host.
func BenchmarkServeReadParallel(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			tenants := spreadTenants(4, 2048)
			s, err := New(Config{
				System: core.FlexLevel, PE: 5000, Seed: 43,
				FTL:     smallFTL(),
				Shards:  shards,
				Tenants: tenants,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				s.Shutdown(ctx)
			}()
			// Direct s.do: no HTTP, so the measurement is admission +
			// engine hop + simulated device, the part sharding scales.
			run := func(ti int, n int) {
				for j := 0; j < n; j++ {
					o := &op{tenant: ti, lpn: uint64(j % 256), pages: 1}
					if res := s.do(context.Background(), o); res.status != 200 {
						b.Errorf("read returned %d (%s)", res.status, res.code)
						return
					}
				}
			}
			const batch = 64
			for ti := range tenants {
				run(ti, 8) // warm every engine
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for ti := range tenants {
					wg.Add(1)
					go func(ti int) {
						defer wg.Done()
						run(ti, batch)
					}(ti)
				}
				wg.Wait()
			}
			b.StopTimer()
			b.ReportMetric(s.Snapshot().IOPS, "sim_iops")
		})
	}
}
