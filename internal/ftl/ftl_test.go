package ftl

import (
	"math/rand"
	"testing"
)

func smallConfig() Config {
	return Config{
		LogicalPages:  512,
		PagesPerBlock: 16,
		Blocks:        44, // 704 phys pages; ~27% OP
		ReducedFactor: 0.75,
		GCThreshold:   3,
		GCTarget:      6,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.LogicalPages = 0 },
		func(c *Config) { c.PagesPerBlock = 0 },
		func(c *Config) { c.Blocks = 0 },
		func(c *Config) { c.ReducedFactor = 0 },
		func(c *Config) { c.ReducedFactor = 1.2 },
		func(c *Config) { c.Blocks = 8 }, // no over-provisioning
		func(c *Config) { c.GCThreshold = 1 },
		func(c *Config) { c.GCTarget = 2 },
		func(c *Config) { c.InitialPE = -1 },
	}
	for i, mutate := range cases {
		c := smallConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDefaultConfigOverprovisioning(t *testing.T) {
	c := DefaultConfig()
	phys := float64(c.PagesPerBlock * c.Blocks)
	op := phys/float64(c.LogicalPages) - 1
	if op < 0.25 || op > 0.40 {
		t.Errorf("over-provisioning = %.1f%%, want ~27%%", op*100)
	}
}

func TestWriteReadBack(t *testing.T) {
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.Mapped(7) {
		t.Error("fresh FTL claims lpn mapped")
	}
	ppn, ops, err := f.Write(7, NormalState)
	if err != nil {
		t.Fatal(err)
	}
	if ops.Programs != 1 {
		t.Errorf("write cost %d programs, want 1", ops.Programs)
	}
	got, state, ok := f.Lookup(7)
	if !ok || got != ppn || state != NormalState {
		t.Errorf("Lookup = %d,%v,%v; want %d,normal,true", got, state, ok, ppn)
	}
	// Overwrite moves the page.
	ppn2, _, err := f.Write(7, NormalState)
	if err != nil {
		t.Fatal(err)
	}
	if ppn2 == ppn {
		t.Error("overwrite reused the same physical page")
	}
}

func TestLookupOutOfRange(t *testing.T) {
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := f.Lookup(99999); ok {
		t.Error("out-of-range lpn resolved")
	}
	if _, _, err := f.Write(99999, NormalState); err == nil {
		t.Error("out-of-range write accepted")
	}
}

func TestReducedPoolBookkeeping(t *testing.T) {
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for lpn := uint64(0); lpn < 24; lpn++ {
		if _, _, err := f.Write(lpn, ReducedState); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.ReducedPages(); got != 24 {
		t.Errorf("ReducedPages = %d, want 24", got)
	}
	// Capacity loss: 24 pages at (1-0.75) density penalty over 512.
	want := 0.25 * 24 / 512.0
	if got := f.CapacityLoss(); got < want*0.99 || got > want*1.01 {
		t.Errorf("CapacityLoss = %g, want %g", got, want)
	}
	// Rewriting into normal pool clears the loss.
	for lpn := uint64(0); lpn < 24; lpn++ {
		if _, _, err := f.Write(lpn, NormalState); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.ReducedPages(); got != 0 {
		t.Errorf("ReducedPages after rewrite = %d, want 0", got)
	}
}

func TestReducedBlocksHoldFewerPages(t *testing.T) {
	cfg := smallConfig()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fill exactly one reduced block: 16 * 0.75 = 12 pages.
	start := len(f.free)
	for lpn := uint64(0); lpn < 12; lpn++ {
		if _, _, err := f.Write(lpn, ReducedState); err != nil {
			t.Fatal(err)
		}
	}
	if used := start - len(f.free); used != 1 {
		t.Errorf("12 reduced pages used %d blocks, want 1", used)
	}
	// One more write must open a second block.
	if _, _, err := f.Write(12, ReducedState); err != nil {
		t.Fatal(err)
	}
	if used := start - len(f.free); used != 2 {
		t.Errorf("13th reduced page used %d blocks, want 2", used)
	}
}

func TestMigrate(t *testing.T) {
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Migrate(5, ReducedState); err == nil {
		t.Error("migrate of unmapped lpn accepted")
	}
	if _, _, err := f.Write(5, NormalState); err != nil {
		t.Fatal(err)
	}
	_, ops, err := f.Migrate(5, ReducedState)
	if err != nil {
		t.Fatal(err)
	}
	if ops.CopyReads != 1 || ops.Programs != 1 {
		t.Errorf("migrate cost %+v, want 1 copy read + 1 program", ops)
	}
	if _, state, _ := f.Lookup(5); state != ReducedState {
		t.Errorf("after migrate state = %v, want reduced", state)
	}
	if f.Stats().MigrationPrograms != 1 {
		t.Errorf("MigrationPrograms = %d, want 1", f.Stats().MigrationPrograms)
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// Write far more than physical capacity to force GC many times.
	for i := 0; i < 5000; i++ {
		lpn := uint64(rng.Intn(512))
		if _, _, err := f.Write(lpn, NormalState); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	s := f.Stats()
	if s.Erases == 0 {
		t.Fatalf("expected GC activity, got %+v", s)
	}
	if s.GCPrograms == 0 {
		t.Error("GC never relocated a page — suspicious for random overwrites")
	}
	if wa := s.WriteAmplification(); wa <= 1.0 || wa > 5 {
		t.Errorf("write amplification %.2f out of plausible range", wa)
	}
	if len(f.free) < 2 {
		t.Errorf("free blocks %d after workload; GC failed to keep up", len(f.free))
	}
}

func TestGCPreservesMappings(t *testing.T) {
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	written := map[uint64]bool{}
	for i := 0; i < 4000; i++ {
		lpn := uint64(rng.Intn(512))
		if _, _, err := f.Write(lpn, NormalState); err != nil {
			t.Fatal(err)
		}
		written[lpn] = true
	}
	for lpn := range written {
		ppn, _, ok := f.Lookup(lpn)
		if !ok {
			t.Fatalf("lpn %d lost after GC", lpn)
		}
		// The inverse map must agree.
		if got := f.pageLPN(ppn); got != int64(lpn) {
			t.Fatalf("pageLPN(%d) = %d, want %d", ppn, got, lpn)
		}
	}
}

func TestOnRelocateCallback(t *testing.T) {
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	moves := 0
	f.OnRelocate = func(lpn uint64, oldPPN, newPPN int64) {
		if oldPPN == newPPN {
			t.Error("relocation to same ppn")
		}
		moves++
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		if _, _, err := f.Write(uint64(rng.Intn(512)), NormalState); err != nil {
			t.Fatal(err)
		}
	}
	if moves == 0 {
		t.Error("OnRelocate never fired despite GC traffic")
	}
	if int64(moves) != f.Stats().GCPrograms {
		t.Errorf("callback fired %d times, GCPrograms %d", moves, f.Stats().GCPrograms)
	}
}

func TestErasesBumpPE(t *testing.T) {
	cfg := smallConfig()
	cfg.InitialPE = 4000
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.MeanPE() != 4000 {
		t.Errorf("MeanPE = %g, want 4000", f.MeanPE())
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 4000; i++ {
		if _, _, err := f.Write(uint64(rng.Intn(512)), NormalState); err != nil {
			t.Fatal(err)
		}
	}
	if f.MeanPE() <= 4000 {
		t.Error("MeanPE did not grow with erases")
	}
	found := false
	for b := 0; b < cfg.Blocks; b++ {
		if f.BlockPE(b) > 4000 {
			found = true
		}
	}
	if !found {
		t.Error("no block accumulated wear")
	}
}

func TestAllReducedOvercommitFails(t *testing.T) {
	// With 27% OP, a fully reduced FTL has barely any slack; writing the
	// whole logical space reduced plus churn must either survive via GC
	// thrash or fail cleanly — never corrupt mappings. With tighter OP
	// it must error.
	cfg := Config{
		LogicalPages:  512,
		PagesPerBlock: 16,
		Blocks:        40, // 640 phys; reduced usable = 480 < 512
		ReducedFactor: 0.75,
		GCThreshold:   3,
		GCTarget:      6,
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var failed bool
	for lpn := uint64(0); lpn < 512; lpn++ {
		if _, _, err := f.Write(lpn, ReducedState); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Error("overcommitted all-reduced fill should run out of blocks")
	}
}

func TestStatsAccounting(t *testing.T) {
	f, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var copyReads int64
	for i := 0; i < 3000; i++ {
		_, ops, err := f.Write(uint64(rng.Intn(512)), NormalState)
		if err != nil {
			t.Fatal(err)
		}
		copyReads += int64(ops.CopyReads)
	}
	s := f.Stats()
	if s.UserPrograms != 3000 {
		t.Errorf("UserPrograms = %d, want 3000", s.UserPrograms)
	}
	if s.TotalPrograms() != s.UserPrograms+s.GCPrograms+s.MigrationPrograms {
		t.Error("TotalPrograms inconsistent")
	}
	if copyReads != s.GCPrograms {
		t.Errorf("copy reads %d != GCPrograms %d without migrations", copyReads, s.GCPrograms)
	}
}

func TestBlockStateString(t *testing.T) {
	if NormalState.String() != "normal" || ReducedState.String() != "reduced" {
		t.Error("BlockState strings wrong")
	}
}
