package core

import (
	"reflect"
	"testing"

	"flexlevel/internal/accesseval"
	"flexlevel/internal/ssd"
	"flexlevel/internal/trace"
)

// simulated strips the fields that are not simulation outcomes: the
// system label and the host-side cache counters.
func simulated(m Metrics) Metrics {
	m.System = 0
	m.LevelCache, m.BERCache = ssd.CacheStats{}, ssd.CacheStats{}
	return m
}

// TestMetamorphicRelations pins three relations the FlexLevel claim
// rests on. The geometry is small enough that fin-2 and prj-1 garbage
// collect, so the write-side relations are not vacuous; web-1 (99%
// reads) erases nothing and checks the read side:
//   - FlexLevel with an empty ReducedCell pool is LDPC-in-SSD: every
//     simulated field is equal;
//   - Baseline and LDPC-in-SSD differ only in how reads are sensed, so
//     they program and erase the same pages;
//   - on a fresh device (P/E 0), whose raw BER stays within the
//     hard-decision capability at every preload age (`flexlevel ber -pe
//     0`: 1.9e-3 at 720 h, below the 4e-3 trigger), every system reads
//     every page at 0 extra levels.
func TestMetamorphicRelations(t *testing.T) {
	const logical = 1024
	options := func(sys System) Options {
		opts := fastOptions(sys, 6000)
		opts.SSD.FTL.LogicalPages = logical
		opts.SSD.FTL.PagesPerBlock = 16
		opts.SSD.FTL.Blocks = 72 // 12.5% raw OP
		opts.AccessEval = accesseval.DefaultParams(logical)
		return opts
	}
	run := func(opts Options, name string) Metrics {
		t.Helper()
		w, err := trace.ByName(name, 6000, logical, 3)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		m, err := replayWorkload(r, w)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		name string
		gc   bool
	}{{"fin-2", true}, {"web-1", false}, {"prj-1", true}} {
		name := tc.name
		ldpc := run(options(LDPCInSSD), name)
		if tc.gc && ldpc.Erases == 0 || ldpc.LevelHist[0] == sumHist(ldpc.LevelHist) {
			t.Fatalf("%s: %d erases, reads by level %v: a relation below would be vacuous", name, ldpc.Erases, ldpc.LevelHist)
		}
		noPool := options(FlexLevel)
		noPool.AccessEval.PoolPages = 0
		if flex := run(noPool, name); !reflect.DeepEqual(simulated(flex), simulated(ldpc)) {
			t.Errorf("%s: FlexLevel with PoolPages 0 differs from LDPC-in-SSD:\n%+v\n%+v", name, flex, ldpc)
		}
		base := run(options(Baseline), name)
		if base.TotalPrograms != ldpc.TotalPrograms || base.Erases != ldpc.Erases {
			t.Errorf("%s: baseline programs/erases %d/%d, LDPC-in-SSD %d/%d",
				name, base.TotalPrograms, base.Erases, ldpc.TotalPrograms, ldpc.Erases)
		}
		for _, sys := range Systems() {
			opts := options(sys)
			opts.PE = 0
			m := run(opts, name)
			if m.LevelHist[0] == 0 || m.LevelHist[0] != sumHist(m.LevelHist) {
				t.Errorf("%s/%v: reads by level %v on a fresh device, want all at 0", name, sys, m.LevelHist)
			}
		}
	}
}

func sumHist(h [8]int64) (n int64) {
	for _, c := range h {
		n += c
	}
	return n
}
