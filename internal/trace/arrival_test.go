package trace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// testTenants returns a three-tenant mix with overlapping windows and
// one tenant per arrival model.
func testTenants() []TenantSpec {
	return []TenantSpec{
		{
			Name: "oltp", Weight: 4, Model: BurstModel,
			ReadRatio: 0.8, ZipfS: 1.3, Base: 0, WorkingSet: 4096,
			MeanPages: 1.2, SeqProb: 0.05,
			Duty: 0.25, Period: 20 * time.Millisecond,
		},
		{
			Name: "web", Weight: 2, Model: DiurnalModel,
			ReadRatio: 0.98, ZipfS: 1.4, Base: 2048, WorkingSet: 8192,
			MeanPages: 1.5, SeqProb: 0.05,
			Period: 50 * time.Millisecond, Amplitude: 0.8,
		},
		{
			Name: "batch", Weight: 2, Model: SteadyModel,
			ReadRatio: 0.45, ZipfS: 1.1, Base: 8192, WorkingSet: 4096,
			MeanPages: 2.5, SeqProb: 0.3,
		},
	}
}

func testSpec() InterleaveSpec {
	return InterleaveSpec{
		Tenants:     testTenants(),
		Requests:    4000,
		Interarrive: 500 * time.Microsecond,
		Seed:        42,
	}
}

// Every arrival model must return non-negative gaps and realize its
// configured long-run mean.
func TestArrivalModelsMeanAndSign(t *testing.T) {
	const mean = time.Millisecond
	models := []ArrivalModel{
		Steady{Mean: mean},
		Burst{Mean: mean, Period: 20 * time.Millisecond, Duty: 0.3},
		Diurnal{Mean: mean, Period: 50 * time.Millisecond, Amplitude: 0.8},
	}
	const n = 50000
	for _, m := range models {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		rng := rand.New(rand.NewSource(7))
		clock := time.Duration(0)
		for i := 0; i < n; i++ {
			gap := m.Gap(rng, clock)
			if gap < 0 {
				t.Fatalf("%s: negative gap %v at arrival %d", m.Name(), gap, i)
			}
			clock += gap
		}
		got := float64(clock) / n
		if got < 0.9*float64(mean) || got > 1.1*float64(mean) {
			t.Errorf("%s: realized mean gap %v, want %v ±10%%", m.Name(), time.Duration(got), mean)
		}
	}
}

// Burst arrivals must land inside on-windows — exactly, not just on
// average: the generator consumes on-time and jumps off windows.
func TestBurstRespectsDutyCycle(t *testing.T) {
	b := Burst{Mean: time.Millisecond, Period: 10 * time.Millisecond, Duty: 0.3}
	onLen := b.Duty * float64(b.Period)
	rng := rand.New(rand.NewSource(3))
	clock := time.Duration(0)
	for i := 0; i < 20000; i++ {
		clock += b.Gap(rng, clock)
		phase := math.Mod(float64(clock), float64(b.Period))
		if phase >= onLen {
			t.Fatalf("arrival %d at %v: phase %.0fns outside on-window [0, %.0fns)",
				i, clock, phase, onLen)
		}
	}
}

// Diurnal arrivals must concentrate in the rising half of the sine:
// the expected fraction with sin > 0 is (π + 2A)/(2π).
func TestDiurnalPeriodDetectable(t *testing.T) {
	d := Diurnal{Mean: time.Millisecond, Period: 50 * time.Millisecond, Amplitude: 0.9}
	rng := rand.New(rand.NewSource(11))
	clock := time.Duration(0)
	const n = 50000
	up := 0
	for i := 0; i < n; i++ {
		clock += d.Gap(rng, clock)
		phase := 2 * math.Pi * math.Mod(float64(clock), float64(d.Period)) / float64(d.Period)
		if math.Sin(phase) > 0 {
			up++
		}
	}
	want := (math.Pi + 2*d.Amplitude) / (2 * math.Pi)
	got := float64(up) / n
	if math.Abs(got-want) > 0.03 {
		t.Errorf("fraction of arrivals in the high half: %.3f, want %.3f ±0.03", got, want)
	}
}

// A nil arrival model means Steady around the workload's Interarrive:
// both streams match draw for draw, which keeps every pre-scenario
// golden artifact bit-identical.
func TestSteadyMatchesLegacyArrivals(t *testing.T) {
	for _, w := range Workloads(2000, 8192, 9) {
		unnamed, err := w.Generate()
		if err != nil {
			t.Fatal(err)
		}
		w.Arrivals = Steady{Mean: w.Interarrive}
		shaped, err := w.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(unnamed, shaped) {
			t.Fatalf("%s: nil arrivals diverge from the Steady model", w.Name)
		}
	}
}

func TestArrivalModelValidation(t *testing.T) {
	bad := []ArrivalModel{
		Steady{Mean: 0},
		Steady{Mean: -time.Second},
		Burst{Mean: time.Millisecond, Period: 0, Duty: 0.5},
		Burst{Mean: time.Millisecond, Period: time.Second, Duty: 0},
		Burst{Mean: time.Millisecond, Period: time.Second, Duty: 1},
		Burst{Mean: time.Millisecond, Period: time.Second, Duty: math.NaN()},
		Diurnal{Mean: time.Millisecond, Period: 0, Amplitude: 0.5},
		Diurnal{Mean: time.Millisecond, Period: time.Second, Amplitude: 1},
		Diurnal{Mean: time.Millisecond, Period: time.Second, Amplitude: math.NaN()},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Errorf("case %d (%s): invalid model accepted", i, m.Name())
		}
	}
}

// The merged stream must be arrival-sorted with every request inside
// its tenant's window and at least one page.
func TestInterleaveStreamWellFormed(t *testing.T) {
	spec := testSpec()
	reqs, err := Interleave(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != spec.Requests {
		t.Fatalf("got %d requests, want %d", len(reqs), spec.Requests)
	}
	var prev time.Duration
	for i, r := range reqs {
		if r.Arrival < prev {
			t.Fatalf("request %d: arrival %v before predecessor %v", i, r.Arrival, prev)
		}
		prev = r.Arrival
		if r.Tenant < 0 || r.Tenant >= len(spec.Tenants) {
			t.Fatalf("request %d: tenant index %d out of range", i, r.Tenant)
		}
		ten := spec.Tenants[r.Tenant]
		if r.LPN < ten.Base || r.LPN+uint64(r.Pages) > ten.Base+ten.WorkingSet {
			t.Fatalf("request %d: [%d, +%d) outside %s window [%d, +%d)",
				i, r.LPN, r.Pages, ten.Name, ten.Base, ten.WorkingSet)
		}
		if r.Pages < 1 {
			t.Fatalf("request %d: %d pages", i, r.Pages)
		}
	}
}

// Merging must conserve the per-tenant budget split exactly.
func TestInterleaveCountsConserved(t *testing.T) {
	spec := testSpec()
	want := TenantCounts(spec)
	sum := 0
	for _, c := range want {
		sum += c
	}
	if sum != spec.Requests {
		t.Fatalf("TenantCounts sums to %d, want %d", sum, spec.Requests)
	}
	reqs, err := Interleave(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(spec.Tenants))
	for _, r := range reqs {
		got[r.Tenant]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("per-tenant counts %v, want %v", got, want)
	}
	// The split must be weight-proportional within rounding.
	total := 0
	for _, ten := range spec.Tenants {
		total += ten.Weight
	}
	for i, ten := range spec.Tenants {
		ideal := float64(spec.Requests) * float64(ten.Weight) / float64(total)
		if math.Abs(float64(want[i])-ideal) >= float64(len(spec.Tenants)) {
			t.Errorf("%s: %d requests, ideal %.1f", ten.Name, want[i], ideal)
		}
	}
}

// The same spec and seed must reproduce the identical stream; a
// different master seed must not.
func TestInterleaveDeterministicAndSeedSensitive(t *testing.T) {
	spec := testSpec()
	a, err := Interleave(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Interleave(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical specs produced different streams")
	}
	spec.Seed++
	c, err := Interleave(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("distinct master seeds produced identical streams")
	}
}

// Two tenants identical in everything but name must draw distinct
// streams: the tenant seed hashes the name, not the position.
func TestInterleaveDistinctTenantSeeds(t *testing.T) {
	ten := testTenants()[2] // steady, simplest to compare
	twin := ten
	twin.Name = "batch2"
	spec := InterleaveSpec{
		Tenants:     []TenantSpec{ten, twin},
		Requests:    2000,
		Interarrive: 500 * time.Microsecond,
		Seed:        1,
	}
	reqs, err := Interleave(spec)
	if err != nil {
		t.Fatal(err)
	}
	var a, b []Request
	for _, r := range reqs {
		if r.Tenant == 0 {
			a = append(a, r)
		} else {
			b = append(b, r)
		}
	}
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("a tenant got no requests")
	}
	same := true
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].LPN != b[i].LPN || a[i].Arrival != b[i].Arrival {
			same = false
			break
		}
	}
	if same {
		t.Fatal("tenants with distinct names drew identical streams")
	}
	if TenantSeed(1, "batch") == TenantSeed(1, "batch2") {
		t.Fatal("distinct names hashed to the same tenant seed")
	}
}

func TestInterleaveSpecValidation(t *testing.T) {
	good := testSpec()
	cases := []func(*InterleaveSpec){
		func(s *InterleaveSpec) { s.Tenants = nil },
		func(s *InterleaveSpec) { s.Requests = 0 },
		func(s *InterleaveSpec) { s.Interarrive = 0 },
		func(s *InterleaveSpec) { s.Tenants[1].Name = s.Tenants[0].Name },
		func(s *InterleaveSpec) { s.Tenants[0].Weight = 0 },
		func(s *InterleaveSpec) { s.Tenants[0].Model = "square-wave" },
		func(s *InterleaveSpec) { s.Tenants[0].Duty = math.NaN() },
		func(s *InterleaveSpec) { s.Tenants[1].Amplitude = 1 },
		func(s *InterleaveSpec) { s.Tenants[2].ZipfS = 1 },
		func(s *InterleaveSpec) { s.Tenants[2].WorkingSet = 0 },
		func(s *InterleaveSpec) {
			s.Tenants[2].Base = math.MaxUint64 - 1
			s.Tenants[2].WorkingSet = 4
		},
	}
	for i, mutate := range cases {
		spec := testSpec()
		mutate(&spec)
		if spec.Validate() == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

// clampPages regression: the pre-scenario form (lpn+pages > ws) wrapped
// around uint64 for page runs at the top of a full-range working set
// and let requests spill outside it.
func TestClampPagesOverflow(t *testing.T) {
	if got := clampPages(math.MaxUint64-2, 64, math.MaxUint64); got != 2 {
		t.Errorf("clampPages at the top of a full-range set: %d pages, want 2", got)
	}
	if got := clampPages(10, 64, 12); got != 2 {
		t.Errorf("clampPages plain clamp: %d pages, want 2", got)
	}
	if got := clampPages(0, 4, 4096); got != 4 {
		t.Errorf("clampPages in-range request clamped to %d", got)
	}
	// End-to-end: a full-range working set must never emit a spilling
	// request (Generate checks its own stream and errors on violation).
	w := Workload{
		Name: "edge", ReadRatio: 0.5, ZipfS: 1.05, WorkingSet: math.MaxUint64,
		MeanPages: 32, SeqProb: 0.9, Interarrive: time.Millisecond,
		Requests: 5000, Seed: 13,
	}
	if _, err := w.Generate(); err != nil {
		t.Fatalf("full-range working set: %v", err)
	}
}

// NaN parameters must be rejected: they compare false against
// everything, so the rejecting-form range checks used to accept them.
func TestValidateRejectsNaN(t *testing.T) {
	good := Workloads(100, 1024, 1)[0]
	cases := []func(*Workload){
		func(w *Workload) { w.ReadRatio = math.NaN() },
		func(w *Workload) { w.ZipfS = math.NaN() },
		func(w *Workload) { w.ZipfS = math.Inf(1) },
		func(w *Workload) { w.MeanPages = math.NaN() },
		func(w *Workload) { w.MeanPages = math.Inf(1) },
		func(w *Workload) { w.SeqProb = math.NaN() },
	}
	for i, mutate := range cases {
		w := good
		mutate(&w)
		if w.Validate() == nil {
			t.Errorf("case %d: NaN/Inf parameter accepted", i)
		}
	}
}
