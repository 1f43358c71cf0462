package accesseval

import (
	"testing"

	"flexlevel/internal/hotdata"
)

func smallParams() Params {
	return Params{
		Lsensing:  2,
		Threshold: 4,
		PoolPages: 4,
		// Small window so frequency accumulates across rotations within
		// a few accesses (hot = present in >= half the filters).
		Hot: hotdata.Config{Window: 4},
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams(65536).Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	cases := []func(*Params){
		func(p *Params) { p.Lsensing = 0 },
		func(p *Params) { p.Threshold = 0 },
		func(p *Params) { p.Threshold = 100 },
		func(p *Params) { p.PoolPages = -1 },
	}
	for i, mutate := range cases {
		p := smallParams()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestDefaultParamsPoolQuarter(t *testing.T) {
	p := DefaultParams(65536)
	if p.PoolPages != 16384 {
		t.Errorf("pool = %d pages, want a quarter of logical (paper: 64GB of 256GB)", p.PoolPages)
	}
	if Lf != 2 || p.Lsensing != 2 {
		t.Errorf("Lf/Lsensing = %d/%d, want 2/2 (paper §6.2)", Lf, p.Lsensing)
	}
}

func TestSensingBucket(t *testing.T) {
	c, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if b := c.SensingBucket(0); b != 1 {
		t.Errorf("bucket(0 levels) = %d, want 1", b)
	}
	if b := c.SensingBucket(1); b != 2 {
		t.Errorf("bucket(1 level) = %d, want 2", b)
	}
	if b := c.SensingBucket(7); b != 2 {
		t.Errorf("bucket(7 levels) = %d, want saturated 2", b)
	}
	if b := c.SensingBucket(-3); b != 1 {
		t.Errorf("bucket(negative) = %d, want 1", b)
	}
}

func TestColdOrFastDataNotMigrated(t *testing.T) {
	c, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	// Cold page with high sensing: overhead = 1 * 2 = 2 < 4.
	if d := c.OnRead(1, 5); d.Migrate {
		t.Error("cold page migrated on first read")
	}
	// Hot page with no sensing overhead: overhead = 2 * 1 = 2 < 4.
	for i := 0; i < 10; i++ {
		if d := c.OnRead(2, 0); d.Migrate {
			t.Fatal("fast page migrated despite zero sensing overhead")
		}
	}
}

func TestHotSlowDataMigrates(t *testing.T) {
	c, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	migrated := false
	for i := 0; i < 10; i++ {
		if d := c.OnRead(3, 4); d.Migrate {
			migrated = true
			break
		}
	}
	if !migrated {
		t.Fatal("hot high-sensing page never migrated")
	}
	if !c.InPool(3) {
		t.Error("migrated page not in pool")
	}
	if c.size != 1 || c.Migrations() != 1 {
		t.Errorf("pool size %d, migrations %d; want 1, 1", c.size, c.Migrations())
	}
	// Further reads of a pool member are no-ops.
	if d := c.OnRead(3, 0); d.Migrate || len(d.Evict) != 0 {
		t.Error("pool member read produced a decision")
	}
}

// fill promotes n distinct pages into the pool.
func fill(t *testing.T, c *Controller, base uint64, n int) {
	t.Helper()
	for p := 0; p < n; p++ {
		lpn := base + uint64(p)
		ok := false
		for i := 0; i < 10; i++ {
			if d := c.OnRead(lpn, 4); d.Migrate {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("page %d never admitted", lpn)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := New(smallParams()) // pool capacity 4
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, 100, 4)
	if c.size != 4 {
		t.Fatalf("pool size %d, want 4", c.size)
	}
	// Touch 101..103 so 100 is LRU.
	c.OnRead(101, 0)
	c.OnRead(102, 0)
	c.OnRead(103, 0)
	// Admit a fifth page; 100 must be evicted.
	var evicted []uint64
	for i := 0; i < 10; i++ {
		d := c.OnRead(200, 4)
		if d.Migrate {
			evicted = d.Evict
			break
		}
	}
	if len(evicted) != 1 || evicted[0] != 100 {
		t.Errorf("evicted %v, want [100]", evicted)
	}
	if c.InPool(100) {
		t.Error("evicted page still in pool")
	}
	if !c.InPool(200) {
		t.Error("new page not admitted")
	}
	if c.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", c.Evictions())
	}
}

func TestOnWrite(t *testing.T) {
	c, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if c.OnWrite(50) {
		t.Error("non-member write should target normal state")
	}
	fill(t, c, 60, 1)
	if !c.OnWrite(60) {
		t.Error("pool member write should target reduced state")
	}
}

func TestRemove(t *testing.T) {
	c, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, 70, 1)
	admitted := c.Migrations()
	c.Remove(70)
	if c.InPool(70) {
		t.Error("Remove left page in pool")
	}
	if c.Migrations() != admitted-1 {
		t.Errorf("Migrations = %d after Remove, want the admission taken back (%d)", c.Migrations(), admitted-1)
	}
	c.Remove(999) // no-op on non-members
	if c.Migrations() != admitted-1 {
		t.Errorf("Remove of a non-member changed Migrations to %d", c.Migrations())
	}
}

func TestZeroPoolNeverMigrates(t *testing.T) {
	p := smallParams()
	p.PoolPages = 0
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if d := c.OnRead(7, 7); d.Migrate {
			t.Fatal("zero-capacity pool admitted a page")
		}
	}
}

func TestOverheadRule(t *testing.T) {
	c, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	// A fresh page: L_f = 1. With levels: bucket 2 -> overhead 2.
	if o := c.Overhead(11, 3); o != 2 {
		t.Errorf("cold overhead = %d, want 2", o)
	}
	// Heat the page up.
	for i := 0; i < 6; i++ {
		c.OnRead(11, 0)
	}
	if o := c.Overhead(11, 3); o != 4 {
		t.Errorf("hot overhead = %d, want 4", o)
	}
	if o := c.Overhead(11, 0); o != 2 {
		t.Errorf("hot fast overhead = %d, want 2", o)
	}
}

func TestMemoryFootprint(t *testing.T) {
	// Paper §5: a 64GB pool of 16KB pages (4Mi entries) at 4 bytes per
	// entry costs 16MB... the paper says 8MB for 32GB of data — verify
	// the 4-bytes-per-entry accounting at our scale.
	p := smallParams()
	p.PoolPages = 1000
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	const bloom = 4 * 32 << 10 // four 2^18-bit filters
	want := int64(1000*4 + bloom)
	if got := c.MemoryFootprintBytes(); got != want {
		t.Errorf("footprint = %d bytes, want %d", got, want)
	}
	// The paper's example: 32GB in reduced pages at 16KB pages = 2Mi
	// entries -> 8MB.
	paper := Params{Lsensing: 2, Threshold: 4,
		PoolPages: 32 << 30 / (16 << 10),
		Hot:       p.Hot}
	cp, err := New(paper)
	if err != nil {
		t.Fatal(err)
	}
	poolOnly := cp.MemoryFootprintBytes() - bloom
	if poolOnly != 8<<20 {
		t.Errorf("paper example footprint = %d, want 8MB", poolOnly)
	}
}
