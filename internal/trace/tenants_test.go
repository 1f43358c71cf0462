package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSampleTenantsValid: every generated tenant set — trio through a
// large derived set, across logical-space sizes — passes Validate and
// carries unique names, so tracegen -tenants always emits a loadable
// spec.
func TestSampleTenantsValid(t *testing.T) {
	for _, pages := range []uint64{16, 4096, 32768, 1 << 30} {
		for _, n := range []int{0, 1, 2, 3, 4, 10, 64} {
			tenants := SampleTenants(n, pages)
			want := n
			if n < 1 {
				want = 3
			}
			if len(tenants) != want {
				t.Fatalf("SampleTenants(%d, %d) returned %d tenants", n, pages, len(tenants))
			}
			seen := map[string]bool{}
			for _, ten := range tenants {
				if err := ten.Validate(); err != nil {
					t.Fatalf("SampleTenants(%d, %d): %v", n, pages, err)
				}
				if seen[ten.Name] {
					t.Fatalf("SampleTenants(%d, %d): duplicate tenant %q", n, pages, ten.Name)
				}
				seen[ten.Name] = true
			}
		}
	}
}

// TestCheckWindows: every sampled tenant set fits the logical space it
// was sized for, and a window that runs past the device — by one page,
// or starting beyond it — is rejected by name.
func TestCheckWindows(t *testing.T) {
	for _, pages := range []uint64{16, 4096, 32768, 1 << 30} {
		for _, n := range []int{3, 10, 64} {
			if err := CheckWindows(SampleTenants(n, pages), pages); err != nil {
				t.Fatalf("SampleTenants(%d, %d): %v", n, pages, err)
			}
		}
	}
	for _, w := range []struct{ base, ws uint64 }{{0, 4097}, {4000, 97}, {4097, 1}, {math.MaxUint64, 1}} {
		tenants := SampleTenants(3, 4096)
		tenants[1].Base, tenants[1].WorkingSet = w.base, w.ws
		err := CheckWindows(tenants, 4096)
		if err == nil || !strings.Contains(err.Error(), "tenant web") {
			t.Errorf("window [%d, +%d): err %v", w.base, w.ws, err)
		}
	}
}

// TestDefaultTenantsRoundTrip: the canonical and derived tenant sets
// survive WriteScenarioSpec → ReadScenarioSpec bit-exactly, so the spec
// CSV is a faithful interchange format between tracegen, scenario and
// serve.
func TestDefaultTenantsRoundTrip(t *testing.T) {
	for _, n := range []int{3, 12} {
		tenants := SampleTenants(n, 32768)
		var buf bytes.Buffer
		if err := WriteScenarioSpec(&buf, tenants); err != nil {
			t.Fatal(err)
		}
		got, err := ReadScenarioSpec(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: re-read emitted spec: %v", n, err)
		}
		if !reflect.DeepEqual(tenants, got) {
			t.Fatalf("n=%d: spec round trip diverged:\nwrote %+v\nread  %+v", n, tenants, got)
		}
	}
}

// TestDefaultTenantsInterleave: the canonical trio drives Interleave
// directly — the same path `flexlevel scenario` and serve use.
func TestDefaultTenantsInterleave(t *testing.T) {
	spec := InterleaveSpec{
		Tenants:     DefaultTenants(32768),
		Requests:    3000,
		Interarrive: 500 * time.Microsecond,
		Seed:        42,
	}
	reqs, err := Interleave(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != spec.Requests {
		t.Fatalf("interleaved stream has %d requests, want %d", len(reqs), spec.Requests)
	}
	perTenant := make([]int, len(spec.Tenants))
	for _, req := range reqs {
		perTenant[req.Tenant]++
	}
	for i, c := range perTenant {
		if c == 0 {
			t.Fatalf("tenant %s generated no requests", spec.Tenants[i].Name)
		}
	}
}
