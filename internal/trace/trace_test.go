package trace

import (
	"testing"
	"time"
)

func TestWorkloadsShape(t *testing.T) {
	ws := Workloads(1000, 65536, 1)
	if len(ws) != 7 {
		t.Fatalf("got %d workloads, want 7", len(ws))
	}
	names := map[string]bool{}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			t.Errorf("%s invalid: %v", w.Name, err)
		}
		if names[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		names[w.Name] = true
	}
	for _, want := range []string{"fin-2", "web-1", "web-2", "prj-1", "prj-2", "win-1", "win-2"} {
		if !names[want] {
			t.Errorf("missing workload %s", want)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	good := Workloads(100, 1024, 1)[0]
	cases := []func(*Workload){
		func(w *Workload) { w.ReadRatio = 1.5 },
		func(w *Workload) { w.ZipfS = 1.0 },
		func(w *Workload) { w.WorkingSet = 0 },
		func(w *Workload) { w.MeanPages = 0.5 },
		func(w *Workload) { w.SeqProb = 1.0 },
		func(w *Workload) { w.Requests = 0 },
		func(w *Workload) { w.Interarrive = 0 },
	}
	for i, mutate := range cases {
		w := good
		mutate(&w)
		if w.Validate() == nil {
			t.Errorf("case %d: invalid workload accepted", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w, err := ByName("fin-2", 500, 4096, 99)
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("non-deterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateInvariants(t *testing.T) {
	for _, w := range Workloads(2000, 8192, 5) {
		reqs, err := w.Generate()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(reqs) != w.Requests {
			t.Errorf("%s: %d requests, want %d", w.Name, len(reqs), w.Requests)
		}
		var prev time.Duration
		for i, r := range reqs {
			if r.Arrival < prev {
				t.Fatalf("%s: arrival times not monotone at %d", w.Name, i)
			}
			prev = r.Arrival
			if r.LPN >= w.WorkingSet {
				t.Fatalf("%s: LPN %d outside working set %d", w.Name, r.LPN, w.WorkingSet)
			}
			if r.Pages < 1 {
				t.Fatalf("%s: request %d has %d pages", w.Name, i, r.Pages)
			}
			if r.LPN+uint64(r.Pages) > w.WorkingSet {
				t.Fatalf("%s: request %d spills past working set", w.Name, i)
			}
		}
	}
}

func TestReadRatiosRealized(t *testing.T) {
	for _, w := range Workloads(20000, 8192, 17) {
		reqs, err := w.Generate()
		if err != nil {
			t.Fatal(err)
		}
		s := Summarize(reqs)
		got := float64(s.Reads) / float64(s.Requests)
		if got < w.ReadRatio-0.02 || got > w.ReadRatio+0.02 {
			t.Errorf("%s: realized read ratio %.3f, configured %.3f", w.Name, got, w.ReadRatio)
		}
	}
}

func TestWebWorkloadsWriteLittle(t *testing.T) {
	// Fig. 7's explanation depends on web-1/web-2 having low original
	// write counts.
	ws := Workloads(20000, 8192, 3)
	counts := map[string]int{}
	for _, w := range ws {
		reqs, err := w.Generate()
		if err != nil {
			t.Fatal(err)
		}
		counts[w.Name] = Summarize(reqs).Writes
	}
	for _, web := range []string{"web-1", "web-2"} {
		for _, other := range []string{"fin-2", "prj-1", "prj-2", "win-1", "win-2"} {
			if counts[web] >= counts[other] {
				t.Errorf("%s writes (%d) should be below %s writes (%d)",
					web, counts[web], other, counts[other])
			}
		}
	}
}

func TestSkewConcentratesAccesses(t *testing.T) {
	// A zipf-skewed workload must concentrate most accesses on a small
	// fraction of pages — the property AccessEval exploits.
	w, err := ByName("web-1", 50000, 65536, 7)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	freq := map[uint64]int{}
	for _, r := range reqs {
		freq[r.LPN]++
	}
	// Count accesses covered by the top 10% most-touched pages.
	distinct := len(freq)
	counts := make([]int, 0, distinct)
	for _, c := range freq {
		counts = append(counts, c)
	}
	// Simple selection: sum of counts above a threshold via sorting.
	total := 0
	for _, c := range counts {
		total += c
	}
	// Sort descending (small n; insertion-free approach via sort pkg
	// would import; simple bubble is fine for test data sizes).
	for i := 1; i < len(counts); i++ {
		for j := i; j > 0 && counts[j] > counts[j-1]; j-- {
			counts[j], counts[j-1] = counts[j-1], counts[j]
		}
	}
	top := distinct / 10
	if top == 0 {
		top = 1
	}
	covered := 0
	for i := 0; i < top; i++ {
		covered += counts[i]
	}
	if frac := float64(covered) / float64(total); frac < 0.5 {
		t.Errorf("top 10%% of pages cover only %.0f%% of accesses; want skew", frac*100)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", 10, 10, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Requests != 0 || s.Span != 0 {
		t.Error("empty summary should be zero")
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("Op strings wrong")
	}
}

func TestCloseLoop(t *testing.T) {
	w := Workloads(100, 1<<12, 1)[0]
	reqs, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	closed := CloseLoop(reqs)
	if len(closed) != len(reqs) {
		t.Fatalf("length changed: %d -> %d", len(reqs), len(closed))
	}
	for i, r := range closed {
		if r.Arrival != 0 {
			t.Fatalf("request %d arrival %v, want 0", i, r.Arrival)
		}
		if r.Op != reqs[i].Op || r.LPN != reqs[i].LPN || r.Pages != reqs[i].Pages {
			t.Fatalf("request %d payload changed: %+v vs %+v", i, r, reqs[i])
		}
	}
	if reqs[len(reqs)-1].Arrival == 0 {
		t.Fatal("input stream mutated (or degenerate test vector)")
	}
}
