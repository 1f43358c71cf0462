// Package accesseval implements FlexLevel §5: the AccessEval module that
// decides which data earns a reduced-state (LevelAdjust) page. It
// combines a multiple-bloom-filter read-frequency identifier (L_f), a
// sensing-level bucketizer (L_sensing), the LDPC-overhead rule
// overhead = L_f × L_sensing, and the ReducedCell pool — an LRU-managed,
// capacity-capped set of logical pages held in reduced state.
package accesseval

import (
	"fmt"
	"math"

	"flexlevel/internal/hotdata"
)

// Lf is the number of read-frequency levels (N); the paper's evaluation
// uses 2 (§6.2).
const Lf = 2

// Params configures the controller. The paper's evaluation uses
// Lsensing = 2 and a pool of one quarter of the logical space (64GB of
// 256GB).
type Params struct {
	Lsensing  int // sensing-level buckets (M)
	Threshold int // migrate when Lf-level × Lsensing-bucket >= Threshold
	PoolPages int // ReducedCell pool capacity (logical pages)
	Hot       hotdata.Config
}

// DefaultParams returns the paper's configuration scaled to logicalPages
// of storage: Lsensing at 2 levels like Lf, threshold requiring both to
// be at their maximum, and a pool of a quarter of the logical space.
func DefaultParams(logicalPages uint64) Params {
	return Params{
		Lsensing:  2,
		Threshold: 4,
		PoolPages: int(logicalPages / 4),
		Hot:       hotdata.DefaultConfig(),
	}
}

// Validate reports parameter problems.
func (p Params) Validate() error {
	if p.Lsensing < 1 {
		return fmt.Errorf("accesseval: Lsensing %d must be >= 1", p.Lsensing)
	}
	if p.Threshold < 1 || p.Threshold > Lf*p.Lsensing {
		return fmt.Errorf("accesseval: threshold %d out of [1, %d]", p.Threshold, Lf*p.Lsensing)
	}
	if p.PoolPages < 0 {
		return fmt.Errorf("accesseval: negative pool capacity")
	}
	return nil
}

// Decision is the controller's verdict for one read.
type Decision struct {
	// Migrate: store the page into the reduced pool now.
	Migrate bool
	// Evict lists pages to convert back to normal state first (LRU
	// victims making room).
	Evict []uint64
}

// Controller is the AccessEval module.
//
// The ReducedCell pool is an intrusive LRU list indexed by LPN: slot lpn
// of links holds the page's list links and membership, so a pool lookup,
// a move to the front and an eviction are array work with no hashing.
// The slots grow on demand up to the largest LPN ever admitted. Links
// are int32 LPNs, so pages at or above math.MaxInt32 are never admitted;
// no device addresses them (ftl.Config.Validate bounds the packed
// tables to 2^31-1 pages).
type Controller struct {
	params Params
	hot    *hotdata.Identifier

	links      []lruLink
	head, tail int32 // most and least recently accessed member, noLink when empty
	size       int

	migrations int64
	evictions  int64
}

// lruLink is one LPN's slot of the pool list.
type lruLink struct {
	prev, next int32 // neighbours towards head and tail, noLink at the ends
	in         bool  // the LPN is a pool member
}

// noLink terminates the pool list.
const noLink = -1

// New builds a Controller.
func New(p Params) (*Controller, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	hot, err := hotdata.New(p.Hot)
	if err != nil {
		return nil, err
	}
	return &Controller{params: p, hot: hot, head: noLink, tail: noLink}, nil
}

// InPool reports whether lpn currently lives in reduced state.
func (c *Controller) InPool(lpn uint64) bool {
	return lpn < uint64(len(c.links)) && c.links[lpn].in
}

// Migrations returns how many pages were admitted to the pool.
func (c *Controller) Migrations() int64 { return c.migrations }

// Evictions returns how many pages were evicted back to normal state.
func (c *Controller) Evictions() int64 { return c.evictions }

// pushFront makes the non-member lpn the pool's most recent member,
// growing the slots to hold it.
func (c *Controller) pushFront(lpn int32) {
	if int(lpn) >= len(c.links) {
		c.links = append(c.links, make([]lruLink, int(lpn)+1-len(c.links))...)
	}
	c.links[lpn] = lruLink{prev: noLink, next: c.head, in: true}
	if c.head != noLink {
		c.links[c.head].prev = lpn
	} else {
		c.tail = lpn
	}
	c.head = lpn
	c.size++
}

// unlink removes the member lpn from the pool.
func (c *Controller) unlink(lpn int32) {
	l := c.links[lpn]
	if l.prev != noLink {
		c.links[l.prev].next = l.next
	} else {
		c.head = l.next
	}
	if l.next != noLink {
		c.links[l.next].prev = l.prev
	} else {
		c.tail = l.prev
	}
	c.links[lpn] = lruLink{}
	c.size--
}

// touch moves the member lpn to the front of the pool.
func (c *Controller) touch(lpn int32) {
	if c.head != lpn {
		c.unlink(lpn)
		c.pushFront(lpn)
	}
}

// SensingBucket maps a read's extra sensing-level count to the paper's
// L_sensing bucket in [1, Lsensing]: level 0 (hard decision) is bucket 1
// and every extra level beyond that climbs one bucket, saturating.
func (c *Controller) SensingBucket(levels int) int {
	if levels < 0 {
		levels = 0
	}
	b := 1 + levels
	if b > c.params.Lsensing {
		b = c.params.Lsensing
	}
	return b
}

// OnRead records a read of lpn that needed the given extra sensing
// levels and returns the migration decision. Pool membership is updated
// immediately; the caller performs the physical page moves.
func (c *Controller) OnRead(lpn uint64, levels int) Decision {
	member := c.InPool(lpn)
	if member || c.params.PoolPages == 0 || lpn >= math.MaxInt32 {
		// No admission to decide: the read only counts towards hotness.
		c.hot.Record(lpn)
		if member {
			c.touch(int32(lpn))
		}
		return Decision{}
	}
	// The read's L_f × L_sensing, counting the read itself.
	if c.hot.RecordLevel(lpn, Lf)*c.SensingBucket(levels) < c.params.Threshold {
		return Decision{}
	}
	var d Decision
	d.Migrate = true
	for c.size >= c.params.PoolPages {
		victim := c.tail
		c.unlink(victim)
		c.evictions++
		d.Evict = append(d.Evict, uint64(victim))
	}
	c.pushFront(int32(lpn))
	c.migrations++
	return d
}

// OnWrite returns whether the write of lpn should target the reduced
// pool (pool members stay reduced; everything else is normal) and
// refreshes the page's LRU position.
func (c *Controller) OnWrite(lpn uint64) (reduced bool) {
	if c.InPool(lpn) {
		c.touch(int32(lpn))
		return true
	}
	return false
}

// Remove takes back the admission of a pool member the caller failed to
// migrate: lpn leaves the pool and Migrations no longer counts it.
func (c *Controller) Remove(lpn uint64) {
	if c.InPool(lpn) {
		c.unlink(int32(lpn))
		c.migrations--
	}
}
