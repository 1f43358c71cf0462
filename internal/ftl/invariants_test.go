package ftl

import (
	"math/rand"
	"testing"
)

// checkInvariants verifies the FTL's structural invariants:
//  1. l2p and p2l are inverse partial bijections;
//  2. per-block valid counts equal the number of mapped pages in it;
//  3. used counts never exceed the state's usable slots;
//  4. free blocks hold no mapped pages;
//  5. block accounting partitions the device.
func checkInvariants(t *testing.T, f *FTL) {
	t.Helper()
	mappedPerBlock := make([]int, f.cfg.Blocks)
	mapped := 0
	for lpn := uint64(0); lpn < f.cfg.LogicalPages; lpn++ {
		ppn := f.mapOf(lpn)
		if ppn == unmapped {
			continue
		}
		mapped++
		if back := f.pageLPN(ppn); back != int64(lpn) {
			t.Fatalf("invariant 1: l2p[%d]=%d but pageLPN(%d)=%d", lpn, ppn, ppn, back)
		}
		mappedPerBlock[f.blockOf(ppn)]++
	}
	phys := int64(f.cfg.PagesPerBlock * f.cfg.Blocks)
	for ppn := int64(0); ppn < phys; ppn++ {
		lpn := f.pageLPN(ppn)
		if lpn == unmapped {
			continue
		}
		if got := f.mapOf(uint64(lpn)); got != ppn {
			t.Fatalf("invariant 1: pageLPN(%d)=%d but l2p[%d]=%d", ppn, lpn, lpn, got)
		}
	}
	freeSet := map[int]bool{}
	for _, b := range f.free {
		if freeSet[int(b)] {
			t.Fatalf("invariant 5: block %d on the free list twice", b)
		}
		freeSet[int(b)] = true
	}
	for b := 0; b < f.cfg.Blocks; b++ {
		if int(f.blockValid[b]) != mappedPerBlock[b] {
			t.Fatalf("invariant 2: block %d valid=%d, mapped=%d", b, f.blockValid[b], mappedPerBlock[b])
		}
		if int(f.blockUsed[b]) > f.usablePages(f.blockState[b]) {
			t.Fatalf("invariant 3: block %d used=%d > usable=%d (%v)",
				b, f.blockUsed[b], f.usablePages(f.blockState[b]), f.blockState[b])
		}
		if f.blockValid[b] > f.blockUsed[b] {
			t.Fatalf("block %d valid=%d > used=%d", b, f.blockValid[b], f.blockUsed[b])
		}
		if freeSet[b] && mappedPerBlock[b] != 0 {
			t.Fatalf("invariant 4: free block %d holds %d mapped pages", b, mappedPerBlock[b])
		}
	}
}

// TestInvariantFuzz drives random write / overwrite / migrate
// sequences and verifies every structural invariant after
// each operation batch.
func TestInvariantFuzz(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		f, err := New(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		live := map[uint64]bool{}
		const ops = 8000
		for op := 0; op < ops; op++ {
			lpn := uint64(rng.Intn(int(f.cfg.LogicalPages)))
			switch rng.Intn(8) {
			case 0, 1, 2, 3, 4: // write, mixed pools
				state := NormalState
				if rng.Intn(4) == 0 {
					state = ReducedState
				}
				if _, _, err := f.Write(lpn, state); err != nil {
					t.Fatalf("seed %d op %d: write: %v", seed, op, err)
				}
				live[lpn] = true
			case 5, 6: // overwrite normal
				if _, _, err := f.Write(lpn, NormalState); err != nil {
					t.Fatalf("seed %d op %d: overwrite: %v", seed, op, err)
				}
				live[lpn] = true
			case 7: // migrate pool if mapped
				if f.Mapped(lpn) {
					target := ReducedState
					if _, st, _ := f.Lookup(lpn); st == ReducedState {
						target = NormalState
					}
					if _, _, err := f.Migrate(lpn, target); err != nil {
						t.Fatalf("seed %d op %d: migrate: %v", seed, op, err)
					}
				}
			}
			if op%500 == 0 {
				checkInvariants(t, f)
			}
		}
		checkInvariants(t, f)
		// Every written page still resolves; no other page does.
		for lpn := uint64(0); lpn < f.cfg.LogicalPages; lpn++ {
			if live[lpn] != f.Mapped(lpn) {
				t.Fatalf("seed %d: lpn %d mapped=%v, expected %v", seed, lpn, f.Mapped(lpn), live[lpn])
			}
		}
	}
}

// TestInvariantFuzzReducedHeavy leans on the reduced pool to stress the
// dual-capacity accounting.
func TestInvariantFuzzReducedHeavy(t *testing.T) {
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	// Keep the reduced footprint within what the geometry can hold:
	// write at most half the logical space reduced.
	for op := 0; op < 6000; op++ {
		lpn := uint64(rng.Intn(int(f.cfg.LogicalPages) / 2))
		state := ReducedState
		if rng.Intn(3) == 0 {
			state = NormalState
		}
		if _, _, err := f.Write(lpn, state); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if op%500 == 0 {
			checkInvariants(t, f)
		}
	}
	checkInvariants(t, f)
	if f.ReducedPages() == 0 {
		t.Error("no pages ended up reduced")
	}
	if loss := f.CapacityLoss(); loss <= 0 || loss > 0.25 {
		t.Errorf("capacity loss %g out of (0, 0.25]", loss)
	}
}
