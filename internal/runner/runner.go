// Package runner is the parallel deterministic experiment engine behind
// every config sweep of the FlexLevel evaluation (reliability, ablations,
// figure grids). It shards a sweep's independent cells across a worker
// pool, gives each shard a seed derived from the master seed and the
// shard's stable key (never a shared rand.Rand), and collects results in
// item order — so the output of any sweep is byte-identical for every
// worker count, including 1. Per-run wall time, simulated operations and
// allocation counts are aggregated through internal/stats into a
// machine-readable Summary that sweeps can emit as JSON for benchmark
// trajectory tracking.
//
// Determinism contract (DESIGN.md §9): a shard function must draw all of
// its randomness from Shard.Seed (or from inputs that are themselves
// deterministic in the sweep config), must not touch package-level
// mutable state, and must not communicate with other shards. Under that
// contract Map is a pure function of (cfg.Seed, items) regardless of
// GOMAXPROCS, scheduling order or worker count.
package runner

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Config parameterizes one engine sweep.
type Config struct {
	// Name labels the sweep in its Summary (and in summary filenames).
	Name string
	// Workers caps the pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// Seed is the master seed shard seeds are derived from.
	Seed int64
	// OnSummary, when non-nil, receives the sweep's Summary after all
	// shards complete (also on error, with the shards that did run).
	OnSummary func(*Summary)
}

// Shard is the per-shard context handed to a sweep function: its stable
// index and the seed derived from its key. The seed depends only on the
// master seed and the shard key, never on scheduling.
type Shard struct {
	Index    int
	Seed     int64
	ops      *int64
	counters *map[string]int64
	gauges   *map[string]float64
}

// AddOps records n simulated operations (requests, cells, trials) for
// the throughput metrics of the sweep Summary.
func (s Shard) AddOps(n int64) { *s.ops += n }

// AddCounter accumulates a named sweep-level counter (e.g. cache hits).
// Counters from all shards are summed into Summary.Counters; since each
// shard only touches its own map, the aggregate is deterministic.
func (s Shard) AddCounter(name string, n int64) {
	if s.counters == nil {
		return
	}
	if *s.counters == nil {
		*s.counters = make(map[string]int64, 8)
	}
	(*s.counters)[name] += n
}

// AddGauge records a named sweep-level gauge (e.g. a latency
// percentile). Unlike counters, gauges do not sum: Summary.Gauges keeps
// the maximum across shards — the worst-shard value — which is the
// useful aggregate for tail latencies. Repeated calls in one shard also
// keep the maximum; the aggregate is order-independent, hence
// deterministic for any worker count.
func (s Shard) AddGauge(name string, v float64) {
	if s.gauges == nil {
		return
	}
	if *s.gauges == nil {
		*s.gauges = make(map[string]float64, 8)
	}
	if cur, ok := (*s.gauges)[name]; !ok || v > cur {
		(*s.gauges)[name] = v
	}
}

// allocCounts samples the runtime's cumulative heap allocation metrics.
// Unlike runtime.ReadMemStats — which stops the world and dominated the
// engine's overhead on sub-millisecond sweeps — runtime/metrics reads
// are cheap enough to bracket every Map call.
func allocCounts() (bytes, objects uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		bytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		objects = s[1].Value.Uint64()
	}
	return bytes, objects
}

// DeriveSeed hashes the master seed and a shard key into a shard seed
// (FNV-1a 64). The function is pure, so a shard's randomness is
// reproducible across processes, platforms and worker counts.
func DeriveSeed(master int64, key string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(master))
	h.Write(b[:])
	h.Write([]byte(key))
	return int64(h.Sum64())
}

// ShardMetric is the per-shard slice of a Summary.
type ShardMetric struct {
	Key     string  `json:"key"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Ops     int64   `json:"ops"`
}

// Summary is the machine-readable outcome of one engine sweep. Speedup
// is the sum of per-shard wall times over the sweep's wall time — the
// wall-clock speedup versus running the same shards serially.
type Summary struct {
	Name           string        `json:"name"`
	Workers        int           `json:"workers"`
	Shards         int           `json:"shards"`
	MasterSeed     int64         `json:"master_seed"`
	WallSeconds    float64       `json:"wall_seconds"`
	ShardSeconds   float64       `json:"shard_seconds_total"`
	Speedup        float64       `json:"speedup"`
	Ops            int64         `json:"sim_ops"`
	OpsPerSec      float64       `json:"sim_ops_per_sec"`
	AllocBytes     uint64        `json:"alloc_bytes"`
	Mallocs        uint64        `json:"mallocs"`
	ShardMinSec    float64       `json:"shard_seconds_min"`
	ShardMeanSec   float64       `json:"shard_seconds_mean"`
	ShardMaxSec    float64       `json:"shard_seconds_max"`
	ShardStddevSec float64       `json:"shard_seconds_stddev"`
	PerShard       []ShardMetric `json:"per_shard"`

	// Counters aggregates the named Shard.AddCounter totals across all
	// shards (cache hit/miss observability and the like). Omitted when no
	// shard recorded any.
	Counters map[string]int64 `json:"counters,omitempty"`

	// Gauges holds the maximum of each named Shard.AddGauge value across
	// all shards (worst-shard semantics: a sweep-level tail latency is
	// the worst cell's tail latency). Omitted when no shard recorded any.
	Gauges map[string]float64 `json:"gauges,omitempty"`
}

// shardSpread fills the shard wall-time fields from PerShard: the total,
// min, mean, max and population standard deviation, all 0 with no shard.
func (s *Summary) shardSpread() {
	n := float64(len(s.PerShard))
	for i, sh := range s.PerShard {
		s.ShardSeconds += sh.Seconds
		if i == 0 || sh.Seconds < s.ShardMinSec {
			s.ShardMinSec = sh.Seconds
		}
		s.ShardMaxSec = max(s.ShardMaxSec, sh.Seconds)
	}
	if n == 0 {
		return
	}
	s.ShardMeanSec = s.ShardSeconds / n
	var ss float64
	for _, sh := range s.PerShard {
		d := sh.Seconds - s.ShardMeanSec
		ss += d * d
	}
	s.ShardStddevSec = math.Sqrt(ss / n)
}

// WriteJSON emits the summary as indented JSON.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Map runs fn over every item on a worker pool and returns the results
// in item order. key must give every item a stable, unique identity —
// it names the shard in metrics and, with the master seed, determines
// the shard's derived seed. The first error (by item order) is returned
// after running shards finish; results of successful shards are still
// populated. Once any shard's error is recorded no further shard
// starts: shards already running finish, the rest stay unrun.
//
// ctx (nil is treated as context.Background) cancels dispatch: shards
// not yet started stay unrun, running shards finish, and Map returns
// ctx.Err(). OnSummary fires either way, so a cancelled sweep still
// emits a partial summary covering the shards that completed.
func Map[I, O any](ctx context.Context, cfg Config, items []I, key func(i int, item I) string, fn func(s Shard, item I) (O, error)) ([]O, *Summary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers < 1 {
		workers = 1
	}

	out := make([]O, len(items))
	errs := make([]error, len(items))
	shardMetrics := make([]ShardMetric, len(items))
	ops := make([]int64, len(items))
	counters := make([]map[string]int64, len(items))
	gauges := make([]map[string]float64, len(items))

	allocBytes0, mallocs0 := allocCounts()
	start := time.Now()

	jobs := make(chan int)
	var failed sync.Once
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				select {
				case <-stop:
					continue // an error is recorded: start nothing new
				default:
				}
				item := items[i]
				k := key(i, item)
				shard := Shard{Index: i, Seed: DeriveSeed(cfg.Seed, k), ops: &ops[i], counters: &counters[i], gauges: &gauges[i]}
				t0 := time.Now()
				res, err := fn(shard, item)
				shardMetrics[i] = ShardMetric{Key: k, Seed: shard.Seed, Seconds: time.Since(t0).Seconds()}
				if err != nil {
					errs[i] = fmt.Errorf("runner: shard %q: %w", k, err)
					failed.Do(func() { close(stop) })
					continue
				}
				out[i] = res
			}
		}()
	}
dispatch:
	for i := range items {
		select {
		case jobs <- i:
		case <-stop:
			break dispatch
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	wall := time.Since(start).Seconds()
	allocBytes1, mallocs1 := allocCounts()

	var totalOps int64
	perShard := make([]ShardMetric, 0, len(items))
	var totals map[string]int64
	var maxGauges map[string]float64
	for i := range shardMetrics {
		if shardMetrics[i].Key == "" { // never dispatched (aborted sweep)
			continue
		}
		shardMetrics[i].Ops = ops[i]
		totalOps += ops[i]
		perShard = append(perShard, shardMetrics[i])
		if len(counters[i]) > 0 {
			if totals == nil {
				totals = make(map[string]int64, len(counters[i]))
			}
			names := make([]string, 0, len(counters[i]))
			for name := range counters[i] {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				totals[name] += counters[i][name]
			}
		}
		if len(gauges[i]) > 0 {
			if maxGauges == nil {
				maxGauges = make(map[string]float64, len(gauges[i]))
			}
			for name, v := range gauges[i] {
				if cur, ok := maxGauges[name]; !ok || v > cur {
					maxGauges[name] = v
				}
			}
		}
	}
	sum := &Summary{
		Name:        cfg.Name,
		Workers:     workers,
		Shards:      len(items),
		MasterSeed:  cfg.Seed,
		WallSeconds: wall,
		Ops:         totalOps,
		AllocBytes:  allocBytes1 - allocBytes0,
		Mallocs:     mallocs1 - mallocs0,
		PerShard:    perShard,
		Counters:    totals,
		Gauges:      maxGauges,
	}
	sum.shardSpread()
	if wall > 0 {
		sum.Speedup = sum.ShardSeconds / wall
		sum.OpsPerSec = float64(totalOps) / wall
	}
	if cfg.OnSummary != nil {
		cfg.OnSummary(sum)
	}
	for _, err := range errs {
		if err != nil {
			return out, sum, err
		}
	}
	if err := ctx.Err(); err != nil {
		return out, sum, err
	}
	return out, sum, nil
}
