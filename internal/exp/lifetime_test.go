package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"flexlevel/internal/core"
	"flexlevel/internal/ftl"
)

// goldenLifetimeParams is the scaled-down end-of-life sweep the golden
// file pins: 1/64 of the full device, with the retirement curves scaled
// down so the tiny spare pool still buys a multi-epoch trajectory.
// `flexlevel lifetime -scale 0.015625 -faults 0.2` reproduces it from
// the CLI, which is what the CI determinism step runs.
func goldenLifetimeParams() LifetimeParams {
	p := DefaultLifetime().Scaled(1.0 / 64)
	p.FaultScale = 0.2
	return p
}

func TestGoldenLifetime(t *testing.T) {
	if testing.Short() {
		t.Skip("lifetime sweep is slow")
	}
	goldenSweep(t, "lifetime")
}

// TestGoldenLifetimeRoundTrip pins the CSV reader to the writer: the
// golden file must parse back into rows that re-serialize to the same
// bytes.
func TestGoldenLifetimeRoundTrip(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "lifetime.csv"))
	if err != nil {
		t.Skipf("no golden file yet: %v", err)
	}
	rows, err := lifetimeCSV.Read(bytes.NewReader(raw), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLifetimeCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Errorf("lifetime CSV does not round-trip through lifetimeCSV")
	}
}

// TestLifetimeTrajectories checks the structural invariants of the
// pinned golden trajectories without re-running the sweep: every
// (scheme, policy) cell is present, epochs count up from 1, cumulative
// counters never decrease, the TBW column is exactly the user-program
// count times the page payload, PolicyNone never refreshes, and each
// cell ends (and only ends) degraded — the sweep ran every device to
// end of life.
func TestLifetimeTrajectories(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "lifetime.csv"))
	if err != nil {
		t.Skipf("no golden file yet: %v", err)
	}
	rows, err := lifetimeCSV.Read(bytes.NewReader(raw), nil)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string][]LifetimeRow{}
	var keys []string
	for _, r := range rows {
		key := r.Scheme + "/" + r.Policy
		if _, seen := cells[key]; !seen {
			keys = append(keys, key)
		}
		cells[key] = append(cells[key], r)
	}
	if want := len(AdaptiveSchemes()) * len(LifetimePolicies()); len(keys) != want {
		t.Fatalf("golden has %d cells, want %d", len(keys), want)
	}
	for _, key := range keys {
		traj := cells[key]
		var prev LifetimeRow
		for i, r := range traj {
			if r.Epoch != i+1 {
				t.Fatalf("%s: row %d has epoch %d, want %d", key, i, r.Epoch, i+1)
			}
			if r.TBWBytes != r.UserWrites*pageBytes {
				t.Errorf("%s epoch %d: tbw_bytes %d != user_writes %d * %d",
					key, r.Epoch, r.TBWBytes, r.UserWrites, pageBytes)
			}
			if i > 0 {
				cumulative := []struct {
					name      string
					prev, cur int64
				}{
					{"refreshes", prev.Refreshes, r.Refreshes},
					{"user_writes", prev.UserWrites, r.UserWrites},
					{"total_programs", prev.TotalPrograms, r.TotalPrograms},
					{"retired_blocks", prev.RetiredBlocks, r.RetiredBlocks},
					{"patrolled", prev.Patrolled, r.Patrolled},
					{"unreadable", prev.Unreadable, r.Unreadable},
				}
				for _, c := range cumulative {
					if c.cur < c.prev {
						t.Errorf("%s epoch %d: %s decreased %d -> %d",
							key, r.Epoch, c.name, c.prev, c.cur)
					}
				}
				if r.SparesLeft > prev.SparesLeft {
					t.Errorf("%s epoch %d: spare pool grew %d -> %d",
						key, r.Epoch, prev.SparesLeft, r.SparesLeft)
				}
			}
			if r.Degraded != (i == len(traj)-1) {
				t.Errorf("%s epoch %d: degraded=%t mid-trajectory", key, r.Epoch, r.Degraded)
			}
			prev = r
		}
		last := traj[len(traj)-1]
		if !last.Degraded {
			t.Errorf("%s: never reached end of life (%d epochs)", key, last.Epoch)
		}
		if traj[0].Policy == PolicyNone && last.Refreshes != 0 {
			t.Errorf("%s: PolicyNone performed %d refreshes", key, last.Refreshes)
		}
	}
}

// TestLifetimeDeviceMemoryBudget is the full-scale memory gate: building
// and preloading the 1M+ physical-page lifetime device must keep the
// packed metadata under 20 bytes per physical page and the whole live
// heap under a fixed budget. This is the reduction the tentpole buys —
// the legacy array-of-structs layout alone would cost 64 B/page here.
func TestLifetimeDeviceMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a full-scale device")
	}
	p := DefaultLifetime()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	opts := core.DefaultOptions(core.Baseline, 6000)
	opts.AgedReducedPreload = true
	opts.SSD.PackedMeta = true
	opts.SSD.FTL.PagesPerBlock = p.PagesPerBlock
	opts.SSD.FTL.Blocks = p.Blocks
	opts.SSD.FTL.SpareBlocks = p.SpareBlocks
	opts.SSD.FTL.LogicalPages = p.LogicalPages
	opts.SSD.Faults = lifetimeFaults(1, p.FaultScale)
	r, err := core.NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	dev := r.Device()
	if err := dev.PreloadState(p.LogicalPages, ftl.NormalState); err != nil {
		t.Fatal(err)
	}

	phys := int64(p.PagesPerBlock) * int64(p.Blocks)
	meta := dev.MetaBytes()
	if perPage := float64(meta) / float64(phys); perPage > 20 {
		t.Errorf("packed metadata = %.1f B per physical page (%d B total), want <= 20",
			perPage, meta)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("device: %d physical pages, %d B metadata (%.1f B/page), heap growth %d MB",
		phys, meta, float64(meta)/float64(phys), growth>>20)
	// The budget covers the packed tables plus the journal, sensing
	// caches and BER surfaces; the pre-packing layout could not fit the
	// page tables alone in it.
	const budgetBytes = 64 << 20
	if growth > budgetBytes {
		t.Errorf("full-scale device heap growth = %d MB, budget %d MB",
			growth>>20, int64(budgetBytes)>>20)
	}
	runtime.KeepAlive(dev)
}
