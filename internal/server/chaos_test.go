// The chaos test: serve live multi-tenant traffic with wear-correlated
// Weibull fault injection running, cut power mid-serve (scripted, so
// the cut lands at an exact admitted op), recover, keep serving, and
// then audit the two durability promises end to end:
//
//  1. Zero acknowledged-write loss — every write the server acked with
//     a sequence number is still mapped by the recovered FTL.
//  2. Ack sequences resume monotonically per tenant across the crash —
//     the counter lives in server memory, above device volatility.
//
// The stochastic fault curves and the scripted crash coexist because
// the crash is driven at the server layer (Config.CrashAtOp →
// ssd.Device.Crash), not through fault.Config.Script — a script would
// replace the Weibull curves entirely.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"flexlevel/internal/core"
	"flexlevel/internal/fault"
	"flexlevel/internal/trace"
)

// chaosFaults is a scaled-down wear-correlated fault config: transient
// read faults fire throughout; program failures appear as blocks wear.
func chaosFaults(seed int64) fault.Config {
	return fault.Config{
		Seed:    seed,
		Program: fault.RateCurve{Base: 2e-4, Amp: 0.02, Scale: 12000, Shape: 3},
		Read:    fault.RateCurve{Base: 2e-3, Amp: 0.05, Scale: 12000, Shape: 2},
	}
}

func TestServeChaosCrashUnderFaults(t *testing.T) {
	cfg := smallFTL()
	cfg.SpareBlocks = 8
	s, err := New(Config{
		System: core.FlexLevel, PE: 5000, Seed: 29,
		FTL:         cfg,
		Tenants:     testTenants(),
		Faults:      chaosFaults(29),
		CrashAtOp:   400,
		AutoRestart: true,
		SimGap:      30 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := hs.Client()

	type ack struct {
		tenant string
		lpn    uint64
		seq    uint64
	}
	var acks []ack
	lastSeq := map[string]uint64{}
	var crashErrors, okAfterCrash int
	tenants := []string{"alpha", "beta"}

	// Mixed read/write traffic across both tenants, long enough to
	// straddle the crash at op 400 with margin on both sides.
	for i := 0; i < 900; i++ {
		name := tenants[i%len(tenants)]
		lpn := uint64((i * 13) % 1024)
		if i%3 == 0 { // write
			resp, err := c.Post(fmt.Sprintf("%s/v1/write?tenant=%s&lpn=%d", hs.URL, name, lpn), "", nil)
			if err != nil {
				t.Fatal(err)
			}
			switch resp.StatusCode {
			case 200:
				var wr WriteResponse
				json.NewDecoder(resp.Body).Decode(&wr)
				if wr.Seq <= lastSeq[name] {
					t.Fatalf("tenant %s ack seq %d after %d: not monotonic across crash",
						name, wr.Seq, lastSeq[name])
				}
				lastSeq[name] = wr.Seq
				acks = append(acks, ack{tenant: name, lpn: lpn, seq: wr.Seq})
				if crashErrors > 0 {
					okAfterCrash++
				}
			case 503:
				var er ErrorResponse
				json.NewDecoder(resp.Body).Decode(&er)
				if er.Code != CodePowerLoss && er.Code != CodeReadOnly {
					t.Fatalf("write 503 with code %q", er.Code)
				}
				if er.Code == CodePowerLoss {
					crashErrors++
				}
			default:
				t.Fatalf("chaos write returned %d", resp.StatusCode)
			}
			resp.Body.Close()
		} else { // read
			resp, err := c.Get(fmt.Sprintf("%s/v1/read?tenant=%s&lpn=%d", hs.URL, name, lpn))
			if err != nil {
				t.Fatal(err)
			}
			switch resp.StatusCode {
			case 200:
				if crashErrors > 0 {
					okAfterCrash++
				}
			case 503:
				crashErrors++
			default:
				t.Fatalf("chaos read returned %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	}

	if crashErrors == 0 {
		t.Fatal("scripted crash produced no power-loss errors")
	}
	if okAfterCrash == 0 {
		t.Fatal("serving never resumed after recovery")
	}
	snap := s.Snapshot()
	if snap.Device.Crashes != 1 {
		t.Fatalf("crashes = %d, want exactly 1", snap.Device.Crashes)
	}
	if snap.Device.TransientReadFaults == 0 {
		t.Fatal("Weibull read-fault injection never fired; chaos isn't chaotic")
	}
	if snap.PowerLossErrors != int64(crashErrors) {
		t.Fatalf("snapshot power-loss errors %d, client saw %d", snap.PowerLossErrors, crashErrors)
	}

	// Drain, then audit: every acked write still mapped post-recovery.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	f := s.shards[0].runner.Device().FTL()
	baseOf := map[string]uint64{}
	for _, spec := range s.Tenants() {
		baseOf[spec.Name] = spec.Base
	}
	for _, a := range acks {
		if _, _, ok := f.Lookup(baseOf[a.tenant] + a.lpn); !ok {
			t.Fatalf("acked write lost: tenant %s lpn %d seq %d unmapped after crash recovery",
				a.tenant, a.lpn, a.seq)
		}
	}
	// And the per-tenant ack totals line up with the server's counters:
	// dense sequences mean max seq == acked count even across the crash.
	for i, spec := range s.Tenants() {
		if snap.Tenants[i].AckSeq != lastSeq[spec.Name] {
			t.Fatalf("tenant %s server ack seq %d != client max %d",
				spec.Name, snap.Tenants[i].AckSeq, lastSeq[spec.Name])
		}
	}
}

// TestServeChaosNoRestart: without AutoRestart a crash pins the server
// in a fail-fast state — every op 503s power_loss, nothing is acked,
// and the drain still completes cleanly.
func TestServeChaosNoRestart(t *testing.T) {
	s, err := New(Config{
		System: core.Baseline, PE: 4000, Seed: 31,
		FTL:       smallFTL(),
		Tenants:   testTenants(),
		CrashAtOp: 20,
		// AutoRestart off: the journal is still enabled (CrashAtOp
		// implies it) but nobody calls Restart.
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := hs.Client()
	var after503 int
	for i := 0; i < 40; i++ {
		code := get(t, c, fmt.Sprintf("%s/v1/read?tenant=alpha&lpn=%d", hs.URL, i), nil)
		if i >= 20 && code == 503 {
			after503++
		}
	}
	if after503 != 20 {
		t.Fatalf("crashed server answered %d/20 post-crash ops with 503", after503)
	}
	if snap := s.Snapshot(); !snap.Crashed {
		t.Fatal("snapshot does not report the crashed device")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain of a crashed server failed: %v", err)
	}
}

// TestChaosTenantIsolation: the crash and faults never bleed one
// tenant's sequence space into another's — spec order is identity.
func TestChaosTenantIsolation(t *testing.T) {
	tenants := testTenants()
	if tenants[0].Base+tenants[0].WorkingSet > tenants[1].Base {
		t.Fatal("test tenants overlap; isolation audit needs disjoint windows")
	}
	var names []string
	for _, spec := range tenants {
		names = append(names, spec.Name)
	}
	if names[0] == names[1] {
		t.Fatal("duplicate tenant names")
	}
	// Interleave both tenants' full spec through the shared trace
	// machinery to confirm the serve namespace matches the scenario one.
	spec := trace.InterleaveSpec{
		Tenants:     tenants,
		Requests:    200,
		Interarrive: 100 * time.Microsecond,
		Seed:        1,
	}
	reqs, err := trace.Interleave(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		spec := tenants[r.Tenant]
		if r.LPN < spec.Base || r.LPN >= spec.Base+spec.WorkingSet {
			t.Fatalf("interleaved request lpn %d outside tenant %s window", r.LPN, spec.Name)
		}
	}
}
