package ftl

import (
	"errors"
	"math/rand"
	"testing"

	"flexlevel/internal/fault"
)

// refLeastWorn is the brute-force free-block pick allocBlock made before
// the free list had a wear index: scan every free block, keep the first
// one with strictly lower P/E.
func refLeastWorn(f *FTL) int {
	best := 0
	for i := 1; i < len(f.free); i++ {
		if f.blockPE[f.free[i]] < f.blockPE[f.free[best]] {
			best = i
		}
	}
	return best
}

// checkFreeIndex asserts freePE recounts the free list exactly and that
// the indexed pick is the brute-force scan's. It reports whether the
// free list held more than one P/E value, the case the index decides.
func checkFreeIndex(t *testing.T, f *FTL, step string) bool {
	t.Helper()
	counts := map[int32]int32{}
	for _, b := range f.free {
		counts[f.blockPE[b]]++
	}
	if len(counts) != len(f.freePE) {
		t.Fatalf("%s: freePE has %d P/E values, free list %d", step, len(f.freePE), len(counts))
	}
	for i, c := range f.freePE {
		if i > 0 && f.freePE[i-1].pe >= c.pe {
			t.Fatalf("%s: freePE not ascending at %d: %v", step, i, f.freePE)
		}
		if counts[c.pe] != c.n {
			t.Fatalf("%s: freePE counts %d blocks at P/E %d, free list %d", step, c.n, c.pe, counts[c.pe])
		}
	}
	if len(f.free) > 0 {
		if got, want := f.leastWornFree(), refLeastWorn(f); got != want {
			t.Fatalf("%s: leastWornFree = position %d (block %d), scan = %d (block %d)",
				step, got, f.free[got], want, f.free[want])
		}
	}
	return len(f.freePE) > 1
}

// TestAllocBlockMatchesReference: over seeded random writes,
// migrations, GC, forced retirements, program/erase/grown-bad faults and
// power cuts followed by Recover, the free-list wear index stays an
// exact recount and the block allocBlock takes is the one the
// brute-force scan picks. Besides the checks after every operation, the
// test opens blocks itself through allocBlock whenever a pool has no
// open block left, as appendPage would.
func TestAllocBlockMatchesReference(t *testing.T) {
	allocs, recoveries, mixed := 0, 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := smallConfig()
		cfg.Blocks = 60
		cfg.SpareBlocks = 6
		cfg.InitialPE = 100
		cfg.Journal = JournalConfig{Enabled: true, FlushRecords: 8, CheckpointEveryFlushes: 4}
		hook := func(op fault.Op, _, _ int) bool {
			switch op {
			case fault.Program:
				return rng.Intn(500) == 0
			case fault.Erase, fault.Grown:
				return rng.Intn(200) == 0
			case fault.PowerLoss:
				return rng.Intn(3000) == 0
			}
			return false
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.Fault = hook
		checkFreeIndex(t, f, "new")
		for i := 0; i < 3000; i++ {
			lpn := uint64(rng.Intn(int(cfg.LogicalPages)))
			st := BlockState(rng.Intn(numStates))
			switch r := rng.Intn(100); {
			case r < 2:
				if ppn, _, ok := f.Lookup(lpn); ok {
					_, err = f.RetireBlock(f.blockOf(ppn))
				}
			case r < 16 && f.Mapped(lpn):
				_, _, err = f.Migrate(lpn, st)
			case r < 18:
				if ab := f.active[st]; len(f.free) > 0 && (ab == nil || ab.nextPage >= f.usablePages(st)) {
					want := int(f.free[refLeastWorn(f)])
					var ops OpCount
					b, aerr := f.allocBlock(st, &ops)
					if aerr == nil {
						if b != want {
							t.Fatalf("seed %d op %d: allocBlock = %d, scan picks %d", seed, i, b, want)
						}
						f.active[st] = &activeBlock{block: b}
						allocs++
					}
					err = aerr
				}
			default:
				_, _, err = f.Write(lpn, st)
			}
			if f.dead {
				f, _, err = Recover(cfg, f.Media().Clone(), hook)
				if errors.Is(err, ErrPowerLoss) {
					break // a second cut during recovery; start the next seed
				}
				if err != nil {
					t.Fatalf("seed %d op %d: recover: %v", seed, i, err)
				}
				recoveries++
				checkFreeIndex(t, f, "recover")
				continue
			}
			if errors.Is(err, ErrDegraded) || errors.Is(err, ErrNoFreeBlocks) {
				break
			}
			var be *BlockError
			if err != nil && !errors.As(err, &be) {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
			if checkFreeIndex(t, f, "op") {
				mixed++
			}
		}
	}
	if allocs < 30 || recoveries < 10 || mixed < 1000 {
		t.Fatalf("%d direct allocations, %d recoveries, %d checks over mixed wear: the sequences missed a case",
			allocs, recoveries, mixed)
	}
}
