package accesseval

import (
	"container/list"
	"math/rand"
	"reflect"
	"testing"

	"flexlevel/internal/hotdata"
	"flexlevel/internal/sensing"
)

// refController is the controller the LPN-indexed pool replaced: the
// ReducedCell pool as a map of container/list elements, the read
// frequency asked of the identifier by LPN.
type refController struct {
	params     Params
	hot        *hotdata.Identifier
	pool       map[uint64]*list.Element
	lru        *list.List // front = most recently accessed
	migrations int64
	evictions  int64
}

func newRefController(t *testing.T, p Params) *refController {
	hot, err := hotdata.New(p.Hot)
	if err != nil {
		t.Fatal(err)
	}
	return &refController{params: p, hot: hot, pool: map[uint64]*list.Element{}, lru: list.New()}
}

func (c *refController) OnRead(lpn uint64, levels int) Decision {
	c.hot.Record(lpn)
	if el, ok := c.pool[lpn]; ok {
		c.lru.MoveToFront(el)
		return Decision{}
	}
	if c.params.PoolPages == 0 {
		return Decision{}
	}
	bucket := min(1+max(levels, 0), c.params.Lsensing)
	if c.hot.FreqLevel(lpn, Lf)*bucket < c.params.Threshold {
		return Decision{}
	}
	d := Decision{Migrate: true}
	for len(c.pool) >= c.params.PoolPages {
		back := c.lru.Back()
		victim := back.Value.(uint64)
		c.lru.Remove(back)
		delete(c.pool, victim)
		c.evictions++
		d.Evict = append(d.Evict, victim)
	}
	c.pool[lpn] = c.lru.PushFront(lpn)
	c.migrations++
	return d
}

func (c *refController) OnWrite(lpn uint64) bool {
	if el, ok := c.pool[lpn]; ok {
		c.lru.MoveToFront(el)
		return true
	}
	return false
}

func (c *refController) Remove(lpn uint64) {
	if el, ok := c.pool[lpn]; ok {
		c.lru.Remove(el)
		delete(c.pool, lpn)
		c.migrations--
	}
}

// TestPoolMatchesListReference: over seeded random OnRead, OnWrite and
// Remove sequences on small pools, so evictions are frequent, the
// LPN-indexed pool gives the map-and-list controller's Decisions,
// OnWrite answers, membership, size and counters after every call.
func TestPoolMatchesListReference(t *testing.T) {
	evictions := int64(0)
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := smallParams()
		p.PoolPages = 1 + rng.Intn(24)
		p.Threshold = 1 + rng.Intn(Lf*p.Lsensing)
		c, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefController(t, p)
		span := 8 + rng.Intn(120) // LPNs in [0, span), hot ones near 0
		for i := 0; i < 20000; i++ {
			lpn := uint64(rng.Intn(1 + rng.Intn(span)))
			switch r := rng.Intn(10); {
			case r < 6:
				levels := rng.Intn(sensing.MaxExtraLevels+2) - 1
				got, want := c.OnRead(lpn, levels), ref.OnRead(lpn, levels)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d call %d: OnRead(%d, %d) = %+v, reference %+v", seed, i, lpn, levels, got, want)
				}
			case r < 9:
				if got, want := c.OnWrite(lpn), ref.OnWrite(lpn); got != want {
					t.Fatalf("seed %d call %d: OnWrite(%d) = %v, reference %v", seed, i, lpn, got, want)
				}
			default:
				c.Remove(lpn)
				ref.Remove(lpn)
			}
			if c.size != len(ref.pool) || c.Migrations() != ref.migrations || c.Evictions() != ref.evictions {
				t.Fatalf("seed %d call %d: size/migrations/evictions %d/%d/%d, reference %d/%d/%d", seed, i,
					c.size, c.Migrations(), c.Evictions(), len(ref.pool), ref.migrations, ref.evictions)
			}
			for q := uint64(0); q < uint64(span)+2; q++ {
				if c.InPool(q) != (ref.pool[q] != nil) {
					t.Fatalf("seed %d call %d: InPool(%d) = %v, reference disagrees", seed, i, q, c.InPool(q))
				}
			}
		}
		evictions += c.Evictions()
	}
	if evictions < 1000 {
		t.Fatalf("only %d evictions: the sequences never churned the pool", evictions)
	}
}
