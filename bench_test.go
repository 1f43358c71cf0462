// Benchmarks regenerating every table and figure of the FlexLevel paper
// (one per experiment, per DESIGN.md §4), plus the ablation studies of
// DESIGN.md §5 and micro-benchmarks of the hot paths. The figure benches
// report their headline numbers as custom metrics (e.g. %reduction), so
// `go test -bench=.` both exercises and reproduces the evaluation.
package flexlevel_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"flexlevel/internal/baseline"
	"flexlevel/internal/core"
	"flexlevel/internal/exp"
	"flexlevel/internal/ftl"
	"flexlevel/internal/ldpc"
	"flexlevel/internal/noise"
	"flexlevel/internal/nunma"
	"flexlevel/internal/runner"
	"flexlevel/internal/sensing"
	"flexlevel/internal/ssd"
	"flexlevel/internal/trace"
)

// benchSim keeps full-system benches to a few seconds per iteration.
func benchSim() exp.SimConfig {
	return exp.SimConfig{Requests: 8000, Seed: 1, PE: 6000}
}

// BenchmarkFig5C2CBER regenerates Fig. 5: interference BER of the
// baseline MLC cell vs the three NUNMA reduced-state configurations.
func BenchmarkFig5C2CBER(b *testing.B) {
	b.ReportAllocs()
	var rows []exp.Fig5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.Fig5(benchSim())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 4 && rows[1].C2CBER > 0 {
		b.ReportMetric(rows[0].C2CBER/rows[1].C2CBER, "baseline/NUNMA1-x")
	}
}

// BenchmarkTable4RetentionBER regenerates Table 4: the retention BER
// grid over P/E cycles and storage time for all four schemes.
func BenchmarkTable4RetentionBER(b *testing.B) {
	b.ReportAllocs()
	var cells []exp.Table4Cell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = exp.Table4(benchSim())
		if err != nil {
			b.Fatal(err)
		}
	}
	red := exp.Table4Reductions(cells)
	b.ReportMetric(red["NUNMA 1"], "NUNMA1-reduction-x")
	b.ReportMetric(red["NUNMA 2"], "NUNMA2-reduction-x")
	b.ReportMetric(red["NUNMA 3"], "NUNMA3-reduction-x")
}

// BenchmarkTable5SensingLevels regenerates Table 5: required extra LDPC
// soft sensing levels of the baseline MLC across the wear/retention grid.
func BenchmarkTable5SensingLevels(b *testing.B) {
	rule := sensing.DefaultRule()
	var rows []exp.Table5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.Table5(rule)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.Levels[4]), "levels@6000/1mo")
}

// BenchmarkFig6aResponseTime regenerates Fig. 6(a): the seven workloads
// under all four systems, reporting the paper's two headline reductions.
func BenchmarkFig6aResponseTime(b *testing.B) {
	b.ReportAllocs()
	var data *exp.Fig6aData
	for i := 0; i < b.N; i++ {
		var err error
		data, err = exp.Fig6a(benchSim())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*data.MeanReduction(core.FlexLevel, core.Baseline), "%red-vs-baseline")
	b.ReportMetric(100*data.MeanReduction(core.FlexLevel, core.LDPCInSSD), "%red-vs-ldpcinssd")
}

// BenchmarkFig6bPECycleSweep regenerates Fig. 6(b): the reduction vs
// LDPC-in-SSD as P/E grows from 4000 to 6000.
func BenchmarkFig6bPECycleSweep(b *testing.B) {
	pes := []int{4000, 6000}
	red := make([]float64, len(pes))
	for i := 0; i < b.N; i++ {
		for j, pe := range pes {
			cfg := benchSim()
			cfg.PE = pe
			data, err := exp.Fig6a(cfg)
			if err != nil {
				b.Fatal(err)
			}
			red[j] = data.MeanReduction(core.FlexLevel, core.LDPCInSSD)
		}
	}
	b.ReportMetric(100*red[0], "%red@4000")
	b.ReportMetric(100*red[1], "%red@6000")
}

// BenchmarkFig7Endurance regenerates Fig. 7: write count, erase count
// and lifetime of FlexLevel vs LDPC-in-SSD at P/E 6000.
func BenchmarkFig7Endurance(b *testing.B) {
	var rows []exp.Fig7Row
	for i := 0; i < b.N; i++ {
		data, err := exp.Fig6a(benchSim())
		if err != nil {
			b.Fatal(err)
		}
		rows = exp.Fig7(data)
	}
	var wi, lt float64
	for _, r := range rows {
		wi += r.WriteIncrease
		lt += r.Lifetime
	}
	n := float64(len(rows))
	b.ReportMetric(100*wi/n, "%write-increase")
	b.ReportMetric(100*(1-lt/n), "%lifetime-loss")
}

// BenchmarkAblationEncoding compares ReduceCode vs naive Gray on 3
// levels (DESIGN.md §5).
func BenchmarkAblationEncoding(b *testing.B) {
	var rows []exp.AblationEncoding
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.EncodingAblation(benchSim())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rows[0].CapacityLoss, "%loss-reducecode")
	b.ReportMetric(100*rows[1].CapacityLoss, "%loss-gray3")
}

// BenchmarkAblationMargins compares NUNMA 3 vs uniform margins.
func BenchmarkAblationMargins(b *testing.B) {
	var rows []exp.AblationMargin
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.MarginAblation(benchSim())
		if err != nil {
			b.Fatal(err)
		}
	}
	if rows[1].RetentionBER > 0 {
		b.ReportMetric(rows[0].RetentionBER/rows[1].RetentionBER, "uniform/NUNMA3-x")
	}
}

// BenchmarkAblationHLORule compares the paper's Lf x Lsensing HLO rule
// against frequency-only identification.
func BenchmarkAblationHLORule(b *testing.B) {
	var rows []exp.AblationHLO
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.HLOAblation(benchSim())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Migrations), "migrations-paper-rule")
	b.ReportMetric(float64(rows[1].Migrations), "migrations-freq-only")
}

// BenchmarkAblationRefTuning compares optimally retuned read references
// against LevelAdjust at the paper's worst corner.
func BenchmarkAblationRefTuning(b *testing.B) {
	var rows []exp.RefTuneRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.RefTuneAblation(benchSim(), 6000, 720)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[1].Levels), "levels-after-tuning")
	b.ReportMetric(float64(rows[2].Levels), "levels-leveladjust")
}

// BenchmarkAblationPoolSweep sweeps the ReducedCell pool capacity.
func BenchmarkAblationPoolSweep(b *testing.B) {
	var rows []exp.AblationPool
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.PoolSweep(benchSim(), []float64{0.001, 0.25})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Norm, "norm@0.1%pool")
	b.ReportMetric(rows[len(rows)-1].Norm, "norm@25%pool")
}

// ------------------------------------------------------ micro-benchmarks

// BenchmarkLDPCSoftDecode measures the min-sum decoder on the test-size
// rate-8/9 code with a realistic error load.
func BenchmarkLDPCSoftDecode(b *testing.B) {
	code, err := ldpc.New(ldpc.TestParams())
	if err != nil {
		b.Fatal(err)
	}
	d := ldpc.NewDecoder(code)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, code.K)
	for i := range data {
		data[i] = byte(rng.Intn(2))
	}
	cw, err := code.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	noisy := make([]byte, len(cw))
	copy(noisy, cw)
	for i := 0; i < 5; i++ {
		noisy[rng.Intn(code.N)] ^= 1
	}
	llr := ldpc.HardToLLR(noisy, ldpc.BSCLLR(0.004))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.Decode(llr)
		if err != nil || !res.OK {
			b.Fatal("decode failed")
		}
	}
}

// BenchmarkLDPCHardDecode measures the bit-flipping decoder (the
// min-sum vs bit-flipping ablation's other arm).
func BenchmarkLDPCHardDecode(b *testing.B) {
	code, err := ldpc.New(ldpc.TestParams())
	if err != nil {
		b.Fatal(err)
	}
	h := ldpc.NewHardDecoder(code)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, code.K)
	for i := range data {
		data[i] = byte(rng.Intn(2))
	}
	cw, err := code.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	noisy := make([]byte, len(cw))
	copy(noisy, cw)
	noisy[rng.Intn(code.N)] ^= 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Decode(noisy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLDPCQCDecode measures min-sum on the quasi-cyclic
// construction (the IRA-vs-QC structure ablation's other arm).
func BenchmarkLDPCQCDecode(b *testing.B) {
	code, err := ldpc.NewQC(ldpc.QCParams{J: 4, L: 36, Z: 37, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	d := ldpc.NewDecoder(code)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, code.K)
	for i := range data {
		data[i] = byte(rng.Intn(2))
	}
	cw, err := code.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	noisy := make([]byte, len(cw))
	copy(noisy, cw)
	for i := 0; i < 5; i++ {
		noisy[rng.Intn(code.N)] ^= 1
	}
	llr := ldpc.HardToLLR(noisy, ldpc.BSCLLR(0.004))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.Decode(llr)
		if err != nil || !res.OK {
			b.Fatal("decode failed")
		}
	}
}

// BenchmarkHardECCStudy regenerates the §1 motivation table (BCH vs
// soft LDPC tolerable BER at equal parity).
func BenchmarkHardECCStudy(b *testing.B) {
	var rows []exp.HardECCRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.HardECCStudy(benchSim())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MaxBER*1e3, "bch-maxBER-x1e-3")
	b.ReportMetric(rows[2].MaxBER*1e3, "ldpc6-maxBER-x1e-3")
}

// BenchmarkLDPCEncode measures the linear-time accumulator encoder.
func BenchmarkLDPCEncode(b *testing.B) {
	code, err := ldpc.New(ldpc.TestParams())
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, code.K)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBERModelTotal measures one closed-form BER evaluation.
func BenchmarkBERModelTotal(b *testing.B) {
	m, err := noise.NewBERModel(nunma.BaselineMLC(), noise.MLCGray())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.TotalBER(5000, 168)
	}
}

// BenchmarkNoiseRetentionBER measures the uncached retention component
// alone — the Erfc loop the BER surface memoizes away on the read path.
func BenchmarkNoiseRetentionBER(b *testing.B) {
	m, err := noise.NewBERModel(nunma.BaselineMLC(), noise.MLCGray())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.RetentionBER(5000, 168)
	}
}

// BenchmarkRequiredLevels measures the UBER rule (Eq. 1 bisection).
func BenchmarkRequiredLevels(b *testing.B) {
	rule := sensing.DefaultRule()
	for i := 0; i < b.N; i++ {
		if _, ok := rule.RequiredLevels(6e-3); !ok {
			b.Fatal("unexpected failure")
		}
	}
}

// BenchmarkFTLWrite measures the mapping layer under GC pressure.
func BenchmarkFTLWrite(b *testing.B) {
	cfg := ftl.Config{
		LogicalPages:  4096,
		PagesPerBlock: 64,
		Blocks:        88,
		ReducedFactor: 0.75,
		GCThreshold:   3,
		GCTarget:      4,
	}
	f, err := ftl.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Write(uint64(rng.Intn(4096)), ftl.NormalState); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDevice builds the small read-bench device over a BER surface of
// ber whose dense window starts at P/E anchorPE; the device's blocks
// sit at P/E 0.
func benchDevice(b *testing.B, ber ssd.BERFunc, anchorPE int) *ssd.Device {
	b.Helper()
	cfg := ssd.DefaultConfig()
	cfg.FTL = ftl.Config{
		LogicalPages:  4096,
		PagesPerBlock: 64,
		Blocks:        88,
		ReducedFactor: 0.75,
		GCThreshold:   3,
		GCTarget:      4,
	}
	d, err := ssd.New(cfg, ssd.NewBERSurface(ber, anchorPE, cfg.MaxDataAgeHours), baseline.LDPCInSSD{})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Preload(4096); err != nil {
		b.Fatal(err)
	}
	return d
}

// flatBER is the read benchmarks' physics: one BER everywhere.
func flatBER(ftl.BlockState, int, int, int) float64 { return 5e-3 }

// BenchmarkSSDRead measures one simulated read end to end with warm
// caches, answered from their maps: the surface's window starts past
// the blocks' wear, so every point is a BER-surface map hit without a
// level slot, as a shifted or far-aged point is.
func BenchmarkSSDRead(b *testing.B) {
	benchReads(b, benchDevice(b, flatBER, 1000))
}

// benchReads times b.N reads cycling over d's 4096 pages, after one
// untimed pass that fills the BER surface and the level cache. The read
// sample is sized up front, as a Runner sizes it for a replay, so no
// timed read regrows it.
func benchReads(b *testing.B, d *ssd.Device) {
	d.ReserveReads(b.N + 4096)
	for i := 0; i < 4096; i++ {
		d.Read(0, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Read(time.Duration(i)*time.Millisecond, uint64(i%4096))
	}
}

// BenchmarkSSDReadMemoized is BenchmarkSSDRead with the surface's
// dense window over the blocks' wear, so every point is a dense hit
// that hands out its level slot: the steady-state nominal read, whose
// sensing decision is one slot check instead of a map probe.
func BenchmarkSSDReadMemoized(b *testing.B) {
	d := benchDevice(b, flatBER, 0)
	benchReads(b, d)
	b.StopTimer()
	if lc := d.Results().LevelCache; lc.Misses != 1 || lc.Hits != int64(b.N)+4095 {
		b.Fatalf("level cache %+v over %d timed reads, want one miss before them", lc, b.N)
	}
}

// BenchmarkSSDReadCold forces a miss of both caches on every read: the
// reads are an hour apart, so each one finds its page at an age hour
// the BER surface has not seen, and each BER it evaluates has a fresh
// level key (steps of 1e-4 in log space, 10x the 1e-5 quantum), so
// every read falls through to the shared sensing-level table. The
// warm/cold pair brackets what the two memos buy.
func BenchmarkSSDReadCold(b *testing.B) {
	calls := 0
	d := benchDevice(b, func(ftl.BlockState, int, int, int) float64 {
		calls++
		return 5e-3 * math.Exp(float64(calls)*1e-4)
	}, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Read(time.Duration(i)*time.Hour, uint64(i%4096))
	}
}

// BenchmarkAdaptiveRead measures one simulated read end to end on a
// calibrated adaptive device (Config.Calib enabled, every block's
// threshold shift already converged by a warm-up pass): the steady-state
// ladder path — per-block shift lookup, shifted-BER evaluation, warm
// level cache — with no recalibration traffic.
func BenchmarkAdaptiveRead(b *testing.B) {
	cfg := ssd.DefaultConfig()
	cfg.FTL = ftl.Config{
		LogicalPages:  4096,
		PagesPerBlock: 64,
		Blocks:        88,
		ReducedFactor: 0.75,
		GCThreshold:   3,
		GCTarget:      4,
	}
	cfg.Calib = true
	// Drifted landscape: pages past 100h are unreadable at nominal
	// references and decode cleanly within 50mV of a -120mV shift, so
	// the warm-up pass calibrates every block once and then holds.
	berOf := func(state ftl.BlockState, pe, ageHours, shiftMv int) float64 {
		if ageHours <= 100 {
			return 1e-4
		}
		d := shiftMv + 120
		if d < 0 {
			d = -d
		}
		if d <= 50 {
			return 1e-4
		}
		return 0.1
	}
	d, err := ssd.New(cfg, ssd.NewBERSurface(berOf, 0, cfg.MaxDataAgeHours), baseline.AdaptiveRetry{})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Preload(4096); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		d.Read(time.Duration(i)*time.Millisecond, uint64(i))
	}
	warm := d.Results().Recalibrations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Read(time.Duration(i)*time.Millisecond, uint64(i%4096))
	}
	b.StopTimer()
	b.ReportMetric(float64(d.Results().Recalibrations-warm), "recals-steady")
}

// BenchmarkJournalFrameEncode measures flushing one full journal frame
// (DefaultFlushRecords mapping records) into a reused log buffer — the
// write-path metadata cost per flush.
func BenchmarkJournalFrameEncode(b *testing.B) {
	recs := make([]ftl.Record, ftl.DefaultFlushRecords)
	for i := range recs {
		recs[i] = ftl.Record{Type: 1, Seq: uint64(i), LPN: uint64(i), PPN: int64(i * 3), State: ftl.NormalState}
	}
	buf := ftl.AppendFrame(nil, recs) // size the buffer once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ftl.AppendFrame(buf[:0], recs)
	}
}

// BenchmarkTraceGenerate measures the synthetic workload generator.
func BenchmarkTraceGenerate(b *testing.B) {
	w, err := trace.ByName("fin-2", 10000, 65536, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneratePaper generates the seven paper workloads at
// 30 000 requests each on the default device's logical space: the set-up
// every Fig. 6(a) grid pays once per workload.
func BenchmarkTraceGeneratePaper(b *testing.B) {
	const requests = 30000
	ws := trace.Workloads(requests, core.DefaultOptions(core.Baseline, 6000).SSD.FTL.LogicalPages, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			if _, err := w.Generate(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ws)*requests), "ns/request")
}

// replayBench replays a Fig. 6(a)-style fin-2 trace under FlexLevel on
// an 8-channel device through Replay, either open-loop (qd 0, every
// request at its arrival) or with a queue-depth window (qd > 0). Both
// drive the same device read path, so the pair prices the completion
// window against the plain per-request loop at equal work.
func replayBench(b *testing.B, qd int) {
	b.Helper()
	opts := core.DefaultOptions(core.FlexLevel, 6000)
	opts.SSD.Channels = 8
	w, err := trace.ByName("fin-2", 8000, opts.SSD.FTL.LogicalPages, 1)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := w.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var m core.Metrics
	for i := 0; i < b.N; i++ {
		r, err := core.NewRunner(opts)
		if err != nil {
			b.Fatal(err)
		}
		if m, err = r.Replay(nil, w.Name, reqs, w.WorkingSet, qd); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.AvgResponse*1e6, "avg-resp-µs")
}

// BenchmarkReplaySerialQD1 is the Fig. 6(a) replay path: Step per
// request at its recorded arrival.
func BenchmarkReplaySerialQD1(b *testing.B) { replayBench(b, 0) }

// BenchmarkReplayBatchedQD8 is the queue-depth path: Replay keeps 8
// requests in flight over its completion window.
func BenchmarkReplayBatchedQD8(b *testing.B) { replayBench(b, 8) }

// scenarioBenchSpec is the default three-tenant mix at bench size.
func scenarioBenchSpec(b *testing.B) trace.InterleaveSpec {
	b.Helper()
	logical := core.DefaultOptions(core.Baseline, 6000).SSD.FTL.LogicalPages
	return trace.InterleaveSpec{
		Tenants:     trace.DefaultTenants(logical),
		Requests:    8000,
		Interarrive: exp.ScenarioInterarrive,
		Seed:        1,
	}
}

// BenchmarkScenarioInterleave measures generating and merging the
// three-tenant scenario stream — the per-cell trace cost every point
// of the scenario matrix pays before replay.
func BenchmarkScenarioInterleave(b *testing.B) {
	spec := scenarioBenchSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	var reqs []trace.Request
	for i := 0; i < b.N; i++ {
		var err error
		reqs, err = trace.Interleave(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(reqs)), "requests")
}

// BenchmarkScenarioReplayQD8 measures one scenario cell end to end:
// the interleaved multi-tenant stream through the batched engine at
// queue depth 8 with per-tenant attribution enabled.
func BenchmarkScenarioReplayQD8(b *testing.B) {
	spec := scenarioBenchSpec(b)
	reqs, err := trace.Interleave(spec)
	if err != nil {
		b.Fatal(err)
	}
	var workingSet uint64
	for _, t := range spec.Tenants {
		if end := t.Base + t.WorkingSet; end > workingSet {
			workingSet = end
		}
	}
	opts := core.DefaultOptions(core.FlexLevel, 6000)
	opts.SSD.Channels = exp.ScenarioChannels
	b.ReportAllocs()
	b.ResetTimer()
	var m core.Metrics
	for i := 0; i < b.N; i++ {
		r, err := core.NewRunner(opts)
		if err != nil {
			b.Fatal(err)
		}
		r.TrackTenants(trace.TenantNames(spec.Tenants))
		m, err = r.Replay(nil, "scenario", reqs, workingSet, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(m.Tenants) > 0 {
		b.ReportMetric(m.Tenants[0].P99Read*1e6, "oltp-p99-µs")
	}
}

// BenchmarkReliabilityParallel runs the fault-injection sweep through
// the experiment engine with all cores and reports the engine's own
// speedup metric (summed shard time over wall time), so the CI
// benchmark artifact tracks parallel efficiency across commits.
func BenchmarkReliabilityParallel(b *testing.B) {
	var speedup, opsPerSec float64
	for i := 0; i < b.N; i++ {
		cfg := benchSim()
		cfg.Parallel = 0 // all cores
		cfg.OnSummary = func(s *runner.Summary) { speedup, opsPerSec = s.Speedup, s.OpsPerSec }
		if _, err := exp.Reliability(cfg, []float64{0, 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(speedup, "x-speedup")
	b.ReportMetric(opsPerSec, "sim-ops/s")
}
