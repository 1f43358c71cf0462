package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDeriveSeedStable(t *testing.T) {
	// The derivation must be reproducible across processes and builds:
	// committed golden sweeps depend on it. Lock in one known value.
	got := DeriveSeed(1, "scale=1/system=baseline")
	if got != DeriveSeed(1, "scale=1/system=baseline") {
		t.Fatal("DeriveSeed not pure")
	}
	const want = int64(399596930331607780)
	if got != want {
		t.Errorf("DeriveSeed(1, scale=1/system=baseline) = %d, want %d (derivation changed: committed goldens are invalidated)", got, want)
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := map[int64]string{}
	for master := int64(0); master < 4; master++ {
		for i := 0; i < 64; i++ {
			key := fmt.Sprintf("shard-%d", i)
			s := DeriveSeed(master, key)
			id := fmt.Sprintf("%d/%s", master, key)
			if prev, ok := seen[s]; ok {
				t.Fatalf("seed collision: %s and %s both map to %d", prev, id, s)
			}
			seen[s] = id
		}
	}
}

// sweep runs a randomized shard function whose output depends only on
// the shard seed, returning the collected results.
func sweep(t *testing.T, workers int) []uint64 {
	t.Helper()
	items := make([]int, 16)
	for i := range items {
		items[i] = i
	}
	out, _, err := Map(nil, Config{Name: "test", Workers: workers, Seed: 7}, items,
		func(i int, _ int) string { return fmt.Sprintf("shard-%d", i) },
		func(s Shard, item int) (uint64, error) {
			rng := rand.New(rand.NewSource(s.Seed))
			// Vary shard duration so completion order differs from
			// dispatch order under parallelism.
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			s.AddOps(1)
			return rng.Uint64(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := sweep(t, 1)
	for _, workers := range []int{2, 4, 8} {
		if got := sweep(t, workers); !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d results differ from serial:\n got %v\nwant %v", workers, got, serial)
		}
	}
}

func TestMapOrdering(t *testing.T) {
	items := []string{"a", "b", "c", "d", "e"}
	out, _, err := Map(nil, Config{Workers: 4}, items,
		func(i int, item string) string { return item },
		func(s Shard, item string) (string, error) {
			// Later shards finish first.
			time.Sleep(time.Duration(len(items)-s.Index) * time.Millisecond)
			return strings.ToUpper(item), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"A", "B", "C", "D", "E"}; !reflect.DeepEqual(out, want) {
		t.Errorf("out = %v, want %v", out, want)
	}
}

// TestMapError: a failing shard aborts dispatch. Shards 3 and 4 wait
// for each other, so with two workers both are running at once and no
// worker is free; each then fails, so whichever worker comes free first
// has already recorded an error. No shard past 4 may start, whatever
// the scheduling.
func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	items := make([]int, 32)
	ran := make([]bool, len(items))
	var started sync.WaitGroup
	started.Add(2)
	_, sum, err := Map(nil, Config{Workers: 2}, items,
		func(i int, _ int) string { return fmt.Sprintf("s%d", i) },
		func(s Shard, _ int) (int, error) {
			ran[s.Index] = true
			switch s.Index {
			case 3, 4:
				started.Done()
				started.Wait()
				return 0, fmt.Errorf("shard %d: %w", s.Index, boom)
			}
			return s.Index, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), `shard "s3"`) {
		t.Errorf("error %q does not name the first failing shard", err)
	}
	if sum == nil {
		t.Fatal("no summary on error")
	}
	dispatched := 0
	for i, r := range ran {
		if r {
			dispatched++
		}
		if r != (i <= 4) {
			t.Errorf("shard %d ran = %v; want exactly shards 0-4 to run", i, r)
		}
	}
	if dispatched == len(items) {
		t.Error("error did not abort dispatch of remaining shards")
	}
}

func TestMapSummary(t *testing.T) {
	var fromHook *Summary
	items := []int{10, 20, 30}
	_, sum, err := Map(nil, Config{Name: "sum-test", Workers: 2, Seed: 9, OnSummary: func(s *Summary) { fromHook = s }},
		items,
		func(i int, _ int) string { return fmt.Sprintf("cell-%d", i) },
		func(s Shard, item int) (int, error) {
			s.AddOps(int64(item))
			return item, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if fromHook != sum {
		t.Error("OnSummary did not receive the returned summary")
	}
	if sum.Name != "sum-test" || sum.Shards != 3 || sum.MasterSeed != 9 {
		t.Errorf("summary header wrong: %+v", sum)
	}
	if sum.Workers != 2 {
		t.Errorf("workers = %d, want 2", sum.Workers)
	}
	if sum.Ops != 60 {
		t.Errorf("ops = %d, want 60", sum.Ops)
	}
	if sum.WallSeconds <= 0 || sum.ShardSeconds <= 0 || sum.Speedup <= 0 {
		t.Errorf("timing metrics not populated: %+v", sum)
	}
	if len(sum.PerShard) != 3 {
		t.Fatalf("per-shard metrics: %d, want 3", len(sum.PerShard))
	}
	for i, m := range sum.PerShard {
		if m.Key != fmt.Sprintf("cell-%d", i) {
			t.Errorf("per-shard %d key %q out of order", i, m.Key)
		}
		if m.Ops != int64(items[i]) {
			t.Errorf("per-shard %d ops = %d, want %d", i, m.Ops, items[i])
		}
		if m.Seed != DeriveSeed(9, m.Key) {
			t.Errorf("per-shard %d seed mismatch", i)
		}
	}
	var b strings.Builder
	if err := sum.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name": "sum-test"`, `"speedup"`, `"sim_ops": 60`, `"per_shard"`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("JSON summary missing %s:\n%s", want, b.String())
		}
	}
}

func TestMapWorkerCapping(t *testing.T) {
	// More workers than items must not break anything; workers reported
	// in the summary are the effective pool size.
	_, sum, err := Map(nil, Config{Workers: 64}, []int{1, 2},
		func(i int, _ int) string { return fmt.Sprintf("%d", i) },
		func(s Shard, item int) (int, error) { return item, nil })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Workers != 2 {
		t.Errorf("effective workers = %d, want 2", sum.Workers)
	}
}

func TestMapEmpty(t *testing.T) {
	out, sum, err := Map(nil, Config{}, nil,
		func(i int, _ struct{}) string { return "" },
		func(s Shard, _ struct{}) (int, error) { return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || sum.Shards != 0 {
		t.Errorf("empty sweep: out=%v shards=%d", out, sum.Shards)
	}
}

func TestMapCancellation(t *testing.T) {
	// Cancelling the context mid-sweep stops dispatch: running shards
	// finish, undispatched ones never start, Map returns ctx.Err(), and
	// the partial summary still arrives through OnSummary with only the
	// completed shards.
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	var partial *Summary
	started := make(chan struct{}, len(items))
	out, sum, err := Map(ctx, Config{Name: "cancel-test", Workers: 1,
		OnSummary: func(s *Summary) { partial = s }}, items,
		func(i int, _ int) string { return fmt.Sprintf("%d", i) },
		func(s Shard, item int) (int, error) {
			started <- struct{}{}
			if s.Index == 2 {
				cancel()
			}
			return item + 1, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ran := len(started)
	if ran >= len(items) {
		t.Fatal("cancellation did not stop dispatch")
	}
	if partial == nil || sum == nil {
		t.Fatal("cancelled sweep emitted no summary")
	}
	if len(partial.PerShard) != ran {
		t.Errorf("partial summary covers %d shards, %d ran", len(partial.PerShard), ran)
	}
	for i := 0; i < ran; i++ {
		if out[i] != items[i]+1 {
			t.Errorf("completed shard %d result lost: %d", i, out[i])
		}
	}
}

func TestMapNilContext(t *testing.T) {
	out, _, err := Map(nil, Config{Workers: 2}, []int{5, 6},
		func(i int, _ int) string { return fmt.Sprintf("%d", i) },
		func(_ Shard, item int) (int, error) { return item * 2, nil })
	if err != nil || out[0] != 10 || out[1] != 12 {
		t.Fatalf("nil ctx sweep: out=%v err=%v", out, err)
	}
}

func TestGaugesMaxAggregation(t *testing.T) {
	items := []int{3, 9, 5, 7}
	var sum *Summary
	cfg := Config{Name: "gauges", Workers: 4, Seed: 1, OnSummary: func(s *Summary) { sum = s }}
	_, _, err := Map(context.Background(), cfg, items,
		func(i int, v int) string { return fmt.Sprintf("cell-%d", i) },
		func(s Shard, v int) (int, error) {
			s.AddGauge("p99_read_s", float64(v))
			s.AddGauge("p99_read_s", float64(v)-1) // lower repeat must not win
			s.AddCounter("reads", int64(v))
			return v, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if sum == nil {
		t.Fatal("no summary emitted")
	}
	if got := sum.Gauges["p99_read_s"]; got != 9 {
		t.Errorf("gauge aggregated to %g, want max 9", got)
	}
	if got := sum.Counters["reads"]; got != 24 {
		t.Errorf("counter aggregated to %d, want sum 24", got)
	}
	// Gauge aggregation must not depend on worker count.
	for _, workers := range []int{1, 2, 3} {
		var s2 *Summary
		cfg := Config{Name: "gauges", Workers: workers, Seed: 1, OnSummary: func(s *Summary) { s2 = s }}
		if _, _, err := Map(context.Background(), cfg, items,
			func(i int, v int) string { return fmt.Sprintf("cell-%d", i) },
			func(s Shard, v int) (int, error) {
				s.AddGauge("p99_read_s", float64(v))
				return v, nil
			}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s2.Gauges, sum.Gauges) {
			t.Errorf("workers=%d gauges %v != reference %v", workers, s2.Gauges, sum.Gauges)
		}
	}
}

func TestGaugeOnZeroShard(t *testing.T) {
	// A Shard zero value (no backing map) must not panic.
	var s Shard
	s.AddGauge("x", 1)
	s.AddCounter("y", 1)
}
