package trace

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestScenarioSpecRoundTrip(t *testing.T) {
	tenants := testTenants()
	var buf bytes.Buffer
	if err := WriteScenarioSpec(&buf, tenants); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScenarioSpec(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reparse of written spec: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(got, tenants) {
		t.Fatalf("round trip changed tenants:\n in: %+v\nout: %+v", tenants, got)
	}
}

func TestScenarioSpecRejections(t *testing.T) {
	row := "oltp,4,burst,0.8,1.3,0,4096,1.2,0.05,0.25,20000,0.5"
	cases := []string{
		"",                       // empty
		"not,the,header\n" + row, // wrong header
		specCSV.Header(),         // no tenants
		specCSV.Header() + "\noltp,4,burst,0.8,1.3,0,4096,1.2,0.05",                                   // short row
		specCSV.Header() + "\n" + row + "\n" + row,                                                    // duplicate name
		specCSV.Header() + "\noltp,0,burst,0.8,1.3,0,4096,1.2,0.05,0.25,20000,0.5",                    // weight 0
		specCSV.Header() + "\noltp,4,square,0.8,1.3,0,4096,1.2,0.05,0.25,20000,0.5",                   // bad model
		specCSV.Header() + "\noltp,4,burst,NaN,1.3,0,4096,1.2,0.05,0.25,20000,0.5",                    // NaN
		specCSV.Header() + "\noltp,4,burst,0.8,+Inf,0,4096,1.2,0.05,0.25,20000,0.5",                   // Inf
		specCSV.Header() + "\noltp,4,burst,-0.8,1.3,0,4096,1.2,0.05,0.25,20000,0.5",                   // negative
		specCSV.Header() + "\noltp,4,burst,0.8,1.3,0,4096,1.2,0.05,0.25,-1,0.5",                       // negative period
		specCSV.Header() + "\noltp,4,burst,0.8,1.3,0,4096,1.2,0.05,0.25,99999999999999999999,0.5",     // period overflow
		specCSV.Header() + "\noltp,4,burst,0.8,1.3,18446744073709551615,4096,1.2,0.05,0.25,20000,0.5", // window overflow
		specCSV.Header() + "\noltp,4,diurnal,0.8,1.3,0,4096,1.2,0.05,0.25,20000,1.5",                  // amplitude out of range
	}
	for i, in := range cases {
		_, err := ReadScenarioSpec(strings.NewReader(in))
		if err == nil {
			t.Errorf("case %d: bad spec accepted:\n%s", i, in)
			continue
		}
		if !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d: rejection not tagged ErrBadSpec: %v", i, err)
		}
	}
}

func TestScenarioSpecPeriodGranularity(t *testing.T) {
	// The interchange format carries periods in microseconds; a spec
	// written from sub-microsecond state must still round-trip to the
	// truncated period, not error.
	tenants := []TenantSpec{{
		Name: "t", Weight: 1, Model: BurstModel,
		ReadRatio: 0.5, ZipfS: 1.2, WorkingSet: 1024,
		MeanPages: 1, SeqProb: 0,
		Duty: 0.5, Period: 1500*time.Microsecond + 300*time.Nanosecond,
	}}
	var buf bytes.Buffer
	if err := WriteScenarioSpec(&buf, tenants); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScenarioSpec(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Period != 1500*time.Microsecond {
		t.Errorf("period %v, want truncation to 1.5ms", got[0].Period)
	}
}

func TestTenantSeedStability(t *testing.T) {
	// The derivation is part of the determinism contract: goldens bake
	// it in, so a change here must fail loudly.
	if got := TenantSeed(1, "oltp"); got != TenantSeed(1, "oltp") {
		t.Fatal("TenantSeed not a pure function")
	}
	if TenantSeed(1, "oltp") == TenantSeed(2, "oltp") {
		t.Error("master seed ignored")
	}
	if TenantSeed(1, "a") == TenantSeed(1, "b") {
		t.Error("tenant name ignored")
	}
}

func TestCheckStream(t *testing.T) {
	ok := []Request{
		{Arrival: 0, LPN: 0, Pages: 1},
		{Arrival: 5, LPN: 10, Pages: 2},
		{Arrival: 5, LPN: 11, Pages: 1},
	}
	if err := CheckStream(ok, 16); err != nil {
		t.Fatalf("well-formed stream rejected: %v", err)
	}
	bad := [][]Request{
		{{Arrival: 5, Pages: 1}, {Arrival: 4, Pages: 1}}, // arrivals decrease
		{{Arrival: 0, Pages: 0}},                         // zero pages
		{{Arrival: 0, LPN: 16, Pages: 1}},                // LPN at ws
		{{Arrival: 0, LPN: 15, Pages: 2}},                // spills past ws
		{{Arrival: 0, LPN: math.MaxUint64, Pages: 2}},    // overflow probe
	}
	for i, reqs := range bad {
		if CheckStream(reqs, 16) == nil {
			t.Errorf("case %d: malformed stream accepted", i)
		}
	}
	if err := CheckStream(ok, 0); err != nil {
		t.Errorf("ws=0 must skip the window check: %v", err)
	}
}
