package ftl

import (
	"errors"
	"math/rand"
	"testing"

	"flexlevel/internal/fault"
)

// openBlocks re-derives each pool's open block from the media: the
// block holding the pool's most recently programmed page, the one with
// the highest OOB sequence number, unless retirement has since taken
// it out of service.
func openBlocks(f *FTL) map[int]bool {
	m := f.Media()
	last := [numStates]int{-1, -1}
	var seq [numStates]uint64
	for b := 0; b < f.cfg.Blocks; b++ {
		for p := 0; p < int(f.blockUsed[b]); p++ {
			if oob := m.PageOOB(f.ppn(b, p)); oob.Valid && oob.Seq > seq[oob.State] {
				last[oob.State], seq[oob.State] = b, oob.Seq
			}
		}
	}
	open := map[int]bool{}
	for _, b := range last {
		if b >= 0 && !f.BadBlock(b) {
			open[b] = true
		}
	}
	return open
}

// refVictim is the brute-force victim rule. Valid counts come from the
// mapping (Lookup over every LPN), retirement from BadBlock, and the
// open blocks from the caller; a candidate must be in service, not
// open, not free, fully written and hold at least one invalid page. The
// fewest valid pages wins, the lowest index on ties.
func refVictim(f *FTL, open map[int]bool) int {
	valid := make([]int, f.cfg.Blocks)
	for lpn := uint64(0); lpn < f.cfg.LogicalPages; lpn++ {
		if ppn, _, ok := f.Lookup(lpn); ok {
			valid[f.blockOf(ppn)]++
		}
	}
	best := -1
	for b := 0; b < f.cfg.Blocks; b++ {
		used := int(f.blockUsed[b])
		usable := f.usablePages(f.blockState[b])
		switch {
		case f.BadBlock(b), open[b]: // retired, open
		case used == 0: // free
		case used < usable: // not yet full
		case valid[b] == usable: // fully valid
		case best < 0 || valid[b] < valid[best]:
			best = b
		}
	}
	return best
}

// checkActive asserts the active array names exactly the open blocks:
// each entry is in service, in its own pool, and its next page matches
// the block's fill level.
func checkActive(t *testing.T, f *FTL, open map[int]bool) {
	t.Helper()
	n := 0
	for i, ab := range f.active {
		if ab == nil {
			continue
		}
		n++
		if !open[ab.block] {
			t.Fatalf("active[%v] = block %d, not an open block (%v)", BlockState(i), ab.block, open)
		}
		if f.blockState[ab.block] != BlockState(i) || f.BadBlock(ab.block) {
			t.Fatalf("active[%v] = block %d in pool %v, bad=%v", BlockState(i), ab.block,
				f.blockState[ab.block], f.BadBlock(ab.block))
		}
		if ab.nextPage != int(f.blockUsed[ab.block]) {
			t.Fatalf("active[%v] nextPage %d, block %d used %d", BlockState(i), ab.nextPage,
				ab.block, f.blockUsed[ab.block])
		}
	}
	if n != len(open) {
		t.Fatalf("active array holds %d blocks, %d open", n, len(open))
	}
}

// churn drives ops random writes, overwrites and migrations across both
// pools, plus occasional forced retirements of data-holding and of
// arbitrary blocks, on a journaled FTL, checking pickVictim against the
// reference and that no bad block sits on the free list or in the spare
// pool after every operation. It returns the number of checks
// that found a victim.
func churn(t *testing.T, f *FTL, rng *rand.Rand, ops int) int {
	t.Helper()
	found := 0
	for i := 0; i < ops; i++ {
		lpn := uint64(rng.Intn(int(f.cfg.LogicalPages)))
		st := NormalState
		if rng.Intn(3) == 0 {
			st = ReducedState
		}
		var err error
		switch r := rng.Intn(100); {
		case r < 2:
			// Retire a block that holds data, as the read path's last
			// resort does.
			if ppn, _, ok := f.Lookup(lpn); ok {
				_, err = f.RetireBlock(f.blockOf(ppn))
			}
		case r < 4:
			// Retire an arbitrary block. One that holds no data (free,
			// spare or just opened) is refused and stays in service.
			b := rng.Intn(f.cfg.Blocks)
			empty := !f.BadBlock(b) && f.blockUsed[b] == 0
			_, err = f.RetireBlock(b)
			if empty {
				if !errors.Is(err, ErrEmptyBlock) || f.BadBlock(b) {
					t.Fatalf("op %d: retire of empty block %d: err %v, bad %v", i, b, err, f.BadBlock(b))
				}
				err = nil
			}
		case r < 12 && f.Mapped(lpn):
			_, _, err = f.Migrate(lpn, st)
		default:
			_, _, err = f.Write(lpn, st)
		}
		if errors.Is(err, ErrDegraded) || errors.Is(err, ErrNoFreeBlocks) {
			return found
		}
		var be *BlockError
		if err != nil && !errors.As(err, &be) {
			t.Fatalf("op %d: %v", i, err)
		}
		for _, b := range f.free {
			if f.BadBlock(int(b)) {
				t.Fatalf("op %d: bad block %d on the free list", i, b)
			}
		}
		for b := 0; b < f.cfg.Blocks; b++ {
			if f.spare.Get(b) && f.BadBlock(b) {
				t.Fatalf("op %d: bad block %d in the spare pool", i, b)
			}
		}
		open := openBlocks(f)
		checkActive(t, f, open)
		got, want := f.pickVictim(), refVictim(f, open)
		if got != want {
			t.Fatalf("op %d: pickVictim = %d, reference = %d", i, got, want)
		}
		if got >= 0 {
			found++
		}
	}
	return found
}

// TestPickVictimMatchesReference: over seeded random write, overwrite
// and migration sequences with program, erase and grown-bad faults and
// forced retirements, pickVictim returns exactly the brute-force
// reference's block after every operation.
func TestPickVictimMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := smallConfig()
		cfg.Blocks = 60
		cfg.SpareBlocks = 8
		cfg.Journal = JournalConfig{Enabled: true}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.Fault = func(op fault.Op, _, _ int) bool {
			switch op {
			case fault.Program:
				return rng.Intn(400) == 0
			case fault.Erase, fault.Grown:
				return rng.Intn(150) == 0
			}
			return false
		}
		if found := churn(t, f, rng, 4000); found < 100 {
			t.Fatalf("seed %d: only %d checks had a victim; the sequence never reached steady GC", seed, found)
		}
		if f.Stats().RetiredBlocks == 0 {
			t.Fatalf("seed %d: no block retired; the faults never fired", seed)
		}
	}
}

// TestRecoverResumesOneActivePerPool: after Recover the active array
// holds exactly one resumed block per pool — the partially written one
// — and victim selection keeps matching the reference as writes go on.
func TestRecoverResumesOneActivePerPool(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := smallConfig()
		cfg.Blocks = 80
		cfg.SpareBlocks = 4
		cfg.Journal = JournalConfig{Enabled: true, FlushRecords: 8, CheckpointEveryFlushes: 3}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		churn(t, f, rng, 1500)
		// Leave both pools with a partially written block.
		for _, st := range []BlockState{NormalState, ReducedState} {
			for f.active[st] == nil || f.active[st].nextPage == 0 ||
				f.active[st].nextPage >= f.usablePages(st) {
				if _, _, err := f.Write(uint64(rng.Intn(int(cfg.LogicalPages))), st); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := f.active
		r, _, err := Recover(cfg, f.Media().Clone(), nil)
		if err != nil {
			t.Fatalf("seed %d: recover: %v", seed, err)
		}
		open := map[int]bool{}
		for i, ab := range r.active {
			st := BlockState(i)
			if ab == nil {
				t.Fatalf("seed %d: no active block resumed in the %v pool", seed, st)
			}
			if ab.block != want[i].block || ab.nextPage != want[i].nextPage {
				t.Fatalf("seed %d: %v pool resumed block %d page %d, want block %d page %d",
					seed, st, ab.block, ab.nextPage, want[i].block, want[i].nextPage)
			}
			open[ab.block] = true
		}
		for b := 0; b < cfg.Blocks; b++ {
			used, usable := int(r.blockUsed[b]), r.usablePages(r.blockState[b])
			if !open[b] && !r.BadBlock(b) && used > 0 && used < usable {
				t.Fatalf("seed %d: block %d partially written (%d/%d) but not resumed", seed, b, used, usable)
			}
		}
		checkActive(t, r, open)
		if got, ref := r.pickVictim(), refVictim(r, open); got != ref {
			t.Fatalf("seed %d: after recover pickVictim = %d, reference = %d", seed, got, ref)
		}
		churn(t, r, rng, 500)
	}
}
