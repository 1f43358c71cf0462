package sensing

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestDefaultRuleValid(t *testing.T) {
	if err := DefaultRule().Validate(); err != nil {
		t.Fatalf("default rule invalid: %v", err)
	}
	bad := DefaultRule()
	bad.KBase = 0
	if bad.Validate() == nil {
		t.Error("zero KBase accepted")
	}
	bad = DefaultRule()
	bad.Target = 2
	if bad.Validate() == nil {
		t.Error("target >= 1 accepted")
	}
}

func TestRequiredLevelsMonotone(t *testing.T) {
	r := DefaultRule()
	prev := 0
	for _, pc := range []float64{1e-4, 1e-3, 3e-3, 5e-3, 7e-3, 1e-2, 1.3e-2, 1.7e-2} {
		l, ok := r.RequiredLevels(pc)
		if !ok && pc < 0.02 {
			t.Errorf("RequiredLevels(%g) not achievable", pc)
		}
		if l < prev {
			t.Errorf("RequiredLevels(%g) = %d decreased from %d", pc, l, prev)
		}
		prev = l
	}
}

func TestRequiredLevelsAnchors(t *testing.T) {
	r := DefaultRule()
	// Below the trigger: hard decision suffices.
	if l, ok := r.RequiredLevels(3e-3); !ok || l != 0 {
		t.Errorf("RequiredLevels(3e-3) = %d,%v, want 0,true", l, ok)
	}
	if l, ok := r.RequiredLevels(0); !ok || l != 0 {
		t.Errorf("RequiredLevels(0) = %d,%v, want 0,true", l, ok)
	}
	// Paper's headline: around 1e-2 the read needs several extra levels
	// ("7x latency" regime).
	if l, _ := r.RequiredLevels(1e-2); l < 3 {
		t.Errorf("RequiredLevels(1e-2) = %d, want >= 3", l)
	}
	// 1.7e-2 (paper's P/E 6000, 1 month ballpark) needs ~6.
	if l, _ := r.RequiredLevels(1.7e-2); l < 5 || l > 7 {
		t.Errorf("RequiredLevels(1.7e-2) = %d, want 5..7", l)
	}
	// Absurd BER: clamped, not ok.
	if l, ok := r.RequiredLevels(0.2); ok || l != MaxExtraLevels {
		t.Errorf("RequiredLevels(0.2) = %d,%v, want %d,false", l, ok, MaxExtraLevels)
	}
}

func TestTriggerBERNearPaperValue(t *testing.T) {
	// The calibration target: the first extra level triggers near 4e-3.
	trig := DefaultRule().TriggerBER()
	if trig < 3e-3 || trig > 5e-3 {
		t.Errorf("trigger BER = %g, want ~4e-3", trig)
	}
	// Consistency with RequiredLevels on either side.
	r := DefaultRule()
	if l, _ := r.RequiredLevels(trig * 0.95); l != 0 {
		t.Errorf("just below trigger needs %d levels", l)
	}
	if l, _ := r.RequiredLevels(trig * 1.05); l == 0 {
		t.Error("just above trigger needs no levels")
	}
}

func TestTimingTable6(t *testing.T) {
	tm := DefaultTiming()
	if tm.Read != 90*time.Microsecond {
		t.Errorf("Read = %v, want 90µs", tm.Read)
	}
	if tm.Program != 1000*time.Microsecond {
		t.Errorf("Program = %v, want 1000µs", tm.Program)
	}
	if tm.Erase != 3*time.Millisecond {
		t.Errorf("Erase = %v, want 3ms", tm.Erase)
	}
}

func TestReadLatencySevenX(t *testing.T) {
	// The paper's motivating claim: six extra levels make the read 7x
	// slower than a hard-decision read.
	tm := DefaultTiming()
	base := tm.ReadLatency(0)
	six := tm.ReadLatency(6)
	if ratio := float64(six) / float64(base); math.Abs(ratio-7) > 1e-9 {
		t.Errorf("latency ratio at 6 levels = %g, want 7", ratio)
	}
	if tm.ReadLatency(-3) != base {
		t.Error("negative levels should clamp to base latency")
	}
}

// TestLevelTableMatchesRule is the equivalence property behind the fast
// read path: the inverted threshold table must agree with the bisection
// rule everywhere, including exactly at and adjacent to each threshold.
func TestLevelTableMatchesRule(t *testing.T) {
	r := DefaultRule()
	tab, err := NewLevelTable(r)
	if err != nil {
		t.Fatalf("NewLevelTable: %v", err)
	}
	check := func(pc float64) {
		t.Helper()
		wantL, wantOK := r.RequiredLevels(pc)
		gotL, gotOK := tab.RequiredLevels(pc)
		if gotL != wantL || gotOK != wantOK {
			t.Fatalf("pc=%.17g: table (%d,%v) != rule (%d,%v)", pc, gotL, gotOK, wantL, wantOK)
		}
	}
	// Dense log-uniform grid over every BER regime the simulator visits.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		pc := math.Exp(rng.Float64()*math.Log(0.5/1e-8) + math.Log(1e-8))
		check(pc)
	}
	// Probe each precomputed threshold and its float neighbours: these
	// are the only places the table could disagree with the rule.
	for l := 0; l <= MaxExtraLevels; l++ {
		for _, thr := range []float64{tab.okBelow[l], tab.failAt[l]} {
			for _, pc := range []float64{
				math.Nextafter(thr, 0), thr, math.Nextafter(thr, 1),
				thr * (1 - 1e-12), thr * (1 + 1e-12),
			} {
				check(pc)
			}
		}
	}
	check(0)
	check(-1e-3)
	check(1)
}

func TestLevelTableValidation(t *testing.T) {
	bad := DefaultRule()
	bad.KStep = 0
	if _, err := NewLevelTable(bad); err == nil {
		t.Error("invalid rule accepted")
	}
}

// TestSharedTableConcurrent hammers SharedTable from many goroutines
// (run it under -race): every caller of one rule gets the same table,
// distinct rules get distinct tables, and invalid rules — including a
// NaN target, which as a map key would never match itself — fail with
// their Validate error and leave nothing in the memo.
func TestSharedTableConcurrent(t *testing.T) {
	second := DefaultRule()
	second.KStep++
	nan := DefaultRule()
	nan.Target = math.NaN()
	zeroStep := DefaultRule()
	zeroStep.KStep = 0
	rules := []LevelRule{DefaultRule(), second}
	invalid := []LevelRule{nan, zeroStep}
	shared.Lock()
	shared.tables = make(map[LevelRule]*LevelTable) // empty memo: its size is checkable
	shared.Unlock()

	const callers = 16
	got := make([][]*LevelTable, len(rules))
	for i := range got {
		got[i] = make([]*LevelTable, callers)
	}
	errs := make(chan error, callers*(len(rules)+len(invalid)))
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		for i, r := range rules {
			wg.Add(1)
			go func(i, c int, r LevelRule) {
				defer wg.Done()
				tab, err := SharedTable(r)
				if err != nil {
					errs <- err
				}
				got[i][c] = tab
			}(i, c, r)
		}
		for _, r := range invalid {
			wg.Add(1)
			go func(r LevelRule) {
				defer wg.Done()
				tab, err := SharedTable(r)
				want := r.Validate()
				if tab != nil || err == nil || err.Error() != want.Error() {
					errs <- fmt.Errorf("invalid rule %+v: got (%p, %v), want (nil, %v)", r, tab, err, want)
				}
			}(r)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, r := range rules {
		for c, tab := range got[i] {
			if tab == nil || tab != got[i][0] {
				t.Fatalf("rule %d caller %d got table %p, want the shared %p", i, c, tab, got[i][0])
			}
		}
		if got[i][0].rule != r {
			t.Errorf("rule %d: table inverts %+v, want %+v", i, got[i][0].rule, r)
		}
	}
	if got[0][0] == got[1][0] {
		t.Error("distinct rules share one table")
	}
	shared.Lock()
	n := len(shared.tables)
	_, cachedBad := shared.tables[zeroStep]
	shared.Unlock()
	if cachedBad || n != len(rules) {
		t.Errorf("memo holds %d tables (invalid cached: %v), want exactly %d", n, cachedBad, len(rules))
	}
}
