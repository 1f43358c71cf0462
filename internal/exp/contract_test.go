package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flexlevel/internal/core"
	"flexlevel/internal/fault"
	"flexlevel/internal/ftl"
	"flexlevel/internal/server"
	"flexlevel/internal/trace"
)

// TestRefusalContract drives each way the device refuses a write through
// the three consumers that meet refusals in normal operation — a replay,
// the lifetime epoch and the serve daemon — and checks that each answers
// and counts it as the table in DESIGN.md §8 says. A refusal that ends
// write life latches the device degraded: the replay counts the write
// and goes on, the lifetime cell stops writing, and serve turns
// read-only. A program that exhausted its retries loses only its own
// write, whoever issued it.
func TestRefusalContract(t *testing.T) {
	// The small geometry of the serve out-of-blocks tests: 2048 logical
	// pages on 176 blocks of 16, one spare.
	geo := ftl.Config{
		LogicalPages: 2048, PagesPerBlock: 16, Blocks: 176,
		ReducedFactor: 0.75, GCThreshold: 3, GCTarget: 4, SpareBlocks: 1,
	}
	// capacityTripped reports whether retired blocks leave the device
	// too small for the logical space plus GC headroom, the FTL's
	// capacity check.
	capacityTripped := func(retired int64) bool {
		surviving := uint64(int64(geo.Blocks)-retired) * uint64(geo.PagesPerBlock)
		return surviving < geo.LogicalPages+uint64(geo.GCTarget*geo.PagesPerBlock)
	}
	// Every erase grows a bad block. Sequential writes leave GC victims
	// with no valid page, so retirements trip the capacity check while
	// free blocks remain; random writes strand valid pages on the
	// victims, and the free list runs dry first.
	grown := fault.Config{Seed: 1, Grown: fault.RateCurve{Base: 1}}
	// The four attempts of the first program after the 2048-page preload.
	var retries []fault.ScriptEvent
	for i := int64(2048); i < 2052; i++ {
		retries = append(retries, fault.ScriptEvent{Op: fault.Program, Index: i})
	}

	for _, row := range []struct {
		name   string
		faults fault.Config
		seq    bool // replay and serve write lpn 0, 1, 2, ... instead of at random
		// hostWrites is the lifetime epoch's host trickle; with none,
		// the scrub refreshes (every page, in lpn order) meet the refusal.
		hostWrites int
		ends       bool // the refusal ends write life
	}{
		{"capacity", grown, true, 0, true},
		{"no_free_block", grown, false, 3000, true},
		{"retries_exhausted", fault.Config{Script: retries}, false, 0, false},
	} {
		newRunner := func(t *testing.T) *core.Runner {
			opts := core.DefaultOptions(core.Baseline, 6000)
			opts.SSD.Seed = 11
			opts.SSD.Faults = row.faults
			opts.SSD.FTL = geo
			r, err := core.NewRunner(opts)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		lpns := func(n int) []uint64 {
			rng := rand.New(rand.NewSource(1))
			out := make([]uint64, n)
			for i := range out {
				out[i] = uint64(rng.Int63n(int64(geo.LogicalPages)))
				if row.seq {
					out[i] = uint64(i) % geo.LogicalPages
				}
			}
			return out
		}
		// checkKind fails the row when the device refused for another
		// reason than the row names.
		checkKind := func(t *testing.T, retired int64) {
			t.Helper()
			if tripped := capacityTripped(retired); tripped != (row.name == "capacity") {
				t.Fatalf("%d blocks retired: capacity check tripped %v; the row no longer drives its refusal", retired, tripped)
			}
		}

		t.Run(row.name+"/replay", func(t *testing.T) {
			const writes = 3000
			reqs := make([]trace.Request, writes)
			for i, lpn := range lpns(writes) {
				reqs[i] = trace.Request{Arrival: time.Duration(i) * 50 * time.Microsecond, Op: trace.Write, LPN: lpn, Pages: 1}
			}
			m, err := newRunner(t).Replay(context.Background(), "contract", reqs, geo.LogicalPages, 0)
			if err != nil {
				t.Fatalf("replay stopped: %v; a refused write is counted and the replay goes on", err)
			}
			checkKind(t, m.RetiredBlocks)
			if m.Degraded != row.ends {
				t.Fatalf("Degraded = %v, want %v", m.Degraded, row.ends)
			}
			if row.ends && (m.WritesRejected == 0 || m.WriteFailures != 0) {
				t.Fatalf("WritesRejected %d, WriteFailures %d; want the refusals in WritesRejected only", m.WritesRejected, m.WriteFailures)
			}
			if !row.ends && (m.WriteFailures != 1 || m.WritesRejected != 0) {
				t.Fatalf("WriteFailures %d, WritesRejected %d; want the one dropped write in WriteFailures", m.WriteFailures, m.WritesRejected)
			}
		})

		t.Run(row.name+"/lifetime", func(t *testing.T) {
			dev := newRunner(t).Device()
			if err := dev.PreloadState(geo.LogicalPages, ftl.NormalState); err != nil {
				t.Fatal(err)
			}
			cell := &lifetimeDrive{
				dev: dev, rng: rand.New(rand.NewSource(1)),
				policy: PolicyScrub, state: ftl.NormalState, logical: geo.LogicalPages,
			}
			if err := cell.epoch(scrubEveryEpochs, row.hostWrites, scrubEveryEpochs*24*time.Hour); err != nil {
				t.Fatalf("epoch stopped: %v", err)
			}
			res := dev.Results()
			checkKind(t, res.FTL.RetiredBlocks)
			if dev.Degraded() != row.ends {
				t.Fatalf("write life over = %v, want %v", dev.Degraded(), row.ends)
			}
			if !row.ends && res.FTL.MigrationPrograms != int64(geo.LogicalPages)-1 {
				t.Fatalf("%d of %d pages refreshed; the refusal must lose only its own refresh",
					res.FTL.MigrationPrograms, geo.LogicalPages)
			}
		})

		t.Run(row.name+"/serve", func(t *testing.T) {
			s, err := server.New(server.Config{
				System: core.Baseline, PE: 6000, Seed: 11,
				FTL:    &geo,
				Faults: row.faults,
				Tenants: []trace.TenantSpec{{
					Name: "t0", Weight: 1, Model: trace.SteadyModel, ReadRatio: 0.8, ZipfS: 1.2,
					WorkingSet: geo.LogicalPages, MeanPages: 1,
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(s.Handler())
			defer func() {
				hs.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				s.Shutdown(ctx)
			}()
			call := func(method, path string, v any) int {
				t.Helper()
				req, err := http.NewRequest(method, hs.URL+path, nil)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := hs.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if v != nil {
					if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
						t.Fatal(err)
					}
				}
				return resp.StatusCode
			}
			write := func(lpn uint64) (int, server.ErrorResponse) {
				var er server.ErrorResponse
				code := call(http.MethodPost, fmt.Sprintf("/v1/write?tenant=t0&lpn=%d", lpn), &er)
				return code, er
			}

			code, er := 200, server.ErrorResponse{}
			for _, lpn := range lpns(3000) {
				if code, er = write(lpn); code != 200 {
					break
				}
			}
			var snap server.Snapshot
			call(http.MethodGet, "/metrics", &snap)
			if row.ends {
				if code != 503 || er.Code != server.CodeReadOnly {
					t.Fatalf("first refused write answered %d %q (%s), want 503 read_only", code, er.Code, er.Message)
				}
				if noBlock := strings.Contains(er.Message, "out of free blocks"); noBlock == (row.name == "capacity") {
					t.Fatalf("first refused write answered %q; the row no longer drives its refusal", er.Message)
				}
				if snap.ReadOnlyRejects != 1 || snap.InternalErrors != 0 {
					t.Fatalf("/metrics read_only_rejects %d, internal_errors %d; want 1, 0",
						snap.ReadOnlyRejects, snap.InternalErrors)
				}
				// The first refusal publishes the latch, whether it tripped
				// inside this write or inside an earlier write's GC.
				var health struct{ Status string }
				call(http.MethodGet, "/healthz", &health)
				if !snap.Degraded || health.Status != "degraded" {
					t.Fatalf("after the first read_only: /metrics degraded %v, /healthz %q; want true, degraded",
						snap.Degraded, health.Status)
				}
				if code, er = write(0); code != 503 || er.Code != server.CodeReadOnly {
					t.Fatalf("write after the refusal answered %d %q, want 503 read_only", code, er.Code)
				}
			} else {
				if code != 503 || er.Code != server.CodeWriteFailed {
					t.Fatalf("first refused write answered %d %q (%s), want 503 write_failed", code, er.Code, er.Message)
				}
				if snap.InternalErrors != 1 || snap.Device.WriteFailures != 1 || snap.ReadOnlyRejects != 0 || snap.Degraded {
					t.Fatalf("/metrics internal_errors %d, write_failures %d, read_only_rejects %d, degraded %v; want 1, 1, 0, false",
						snap.InternalErrors, snap.Device.WriteFailures, snap.ReadOnlyRejects, snap.Degraded)
				}
				if code, er = write(0); code != 200 {
					t.Fatalf("write after the refusal answered %d %q, want 200", code, er.Code)
				}
			}
			if code := call(http.MethodGet, "/v1/read?tenant=t0&lpn=0", nil); code != 200 {
				t.Fatalf("read after the refusal answered %d, want 200", code)
			}
		})
	}
}
