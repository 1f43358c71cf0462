package ssd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"flexlevel/internal/ftl"
	"flexlevel/internal/noise"
	"flexlevel/internal/nunma"
)

// physics is the device physics a runner's surface memoizes, as core
// builds it: the baseline cell for normal blocks and NUNMA 3 for
// reduced ones (any other state reads as normal), with each model's
// shift-0 interference term computed once and added to the retention
// term in TotalBERShifted's operand order.
type physics struct {
	normal, reduced *noise.BERModel
	c2c0            [2]float64
}

func newPhysics(tb testing.TB) *physics {
	tb.Helper()
	normal, err := nunma.Model("baseline")
	if err != nil {
		tb.Fatal(err)
	}
	reduced, err := nunma.Model("NUNMA 3")
	if err != nil {
		tb.Fatal(err)
	}
	return &physics{normal: normal, reduced: reduced, c2c0: [2]float64{normal.C2CBERShifted(0), reduced.C2CBERShifted(0)}}
}

// model returns the state's model and its index in c2c0.
func (p *physics) model(state ftl.BlockState) (*noise.BERModel, int) {
	if state == ftl.ReducedState {
		return p.reduced, 1
	}
	return p.normal, 0
}

func (p *physics) ber(state ftl.BlockState, pe, ageHours, shiftMv int) float64 {
	m, i := p.model(state)
	if shiftMv == 0 {
		return p.c2c0[i] + m.RetentionBERShifted(pe, float64(ageHours), 0)
	}
	return m.TotalBERShifted(pe, float64(ageHours), float64(shiftMv)/1000)
}

// newSurface builds a surface over the test physics.
func newSurface(tb testing.TB, anchorPE int, maxAgeHours float64) (*BERSurface, *physics) {
	p := newPhysics(tb)
	return NewBERSurface(p.ber, anchorPE, maxAgeHours), p
}

// mapSurface is the reference memo: the map-only surface the dense
// window replaced, with its own counters. It evaluates every point with
// the model's TotalBERShifted, so it also pins the hoisted shift-0
// interference term.
type mapSurface struct {
	p     *physics
	cache map[int64]float64
	stats CacheStats
}

func newMapSurface(t *testing.T) *mapSurface {
	t.Helper()
	return &mapSurface{p: newPhysics(t), cache: map[int64]float64{}}
}

func (r *mapSurface) eval(state ftl.BlockState, pe, ageQ, shiftMv int) float64 {
	m, _ := r.p.model(state)
	return m.TotalBERShifted(pe, float64(ageQ), float64(shiftMv)/1000)
}

func (r *mapSurface) BER(state ftl.BlockState, pe int, ageHours float64, shiftMv int) float64 {
	ageQ := int(ageHours)
	key, ok := surfaceKey(state, pe, ageQ, shiftMv)
	if !ok {
		return r.eval(state, pe, ageQ, shiftMv)
	}
	if v, hit := r.cache[key]; hit {
		r.stats.Hits++
		return v
	}
	r.stats.Misses++
	v := r.eval(state, pe, ageQ, shiftMv)
	if len(r.cache) >= berSurfaceCap {
		r.cache = make(map[int64]float64, berSurfaceCap/4)
		r.stats.Resets++
	}
	r.cache[key] = v
	return v
}

// surfacePoint is one BER query.
type surfacePoint struct {
	state   ftl.BlockState
	pe      int
	age     float64
	shiftMv int
}

// randomPoint draws a query around the dense window anchored at anchor
// with ageRows age slots: mostly inside it, often just outside it (P/E
// below the anchor or past the last row, ages past the window, shifted
// reads), sometimes outside the packed key ranges altogether.
func randomPoint(rng *rand.Rand, anchor, ageRows int) surfacePoint {
	p := surfacePoint{
		state: ftl.BlockState(rng.Intn(2)),
		pe:    anchor - 4 + rng.Intn(densePERows+8),
		age:   float64(rng.Intn(ageRows+64)) + rng.Float64(),
	}
	if rng.Intn(4) == 0 {
		p.shiftMv = rng.Intn(401) - 200
	}
	switch rng.Intn(200) {
	case 0:
		p.state = ftl.BlockState(2 + rng.Intn(2)) // no such state
	case 1:
		p.pe = 1<<keyPEBits + rng.Intn(8)
	case 2:
		p.pe = -1 - rng.Intn(8)
	case 3:
		p.age = -1 - rng.Float64()*10
	case 4:
		p.age = 1<<keyAgeBits + rng.Float64()
	case 5:
		p.shiftMv = 2048 + rng.Intn(100)
	case 6:
		p.shiftMv = -2049 - rng.Intn(100)
	}
	return p
}

// denseEntry returns the window entry a point occupies, or nil when the
// point is not a shift-0 point inside the window. It allocates nothing.
func denseEntry(s *BERSurface, p surfacePoint) *surfaceEntry {
	ageQ := int(p.age)
	if p.shiftMv != 0 || p.state < 0 || int(p.state) >= len(s.dense) || ageQ < 0 || ageQ >= s.ageRows {
		return nil
	}
	i := p.pe - s.anchorPE
	if i < 0 || i >= len(s.dense[p.state]) || s.dense[p.state][i] == nil {
		return nil
	}
	return &s.dense[p.state][i][ageQ]
}

// matchMapMemo feeds n points from next to s and to the map-only
// reference and fails on the first call where they differ: the BER
// bits, a level key other than levelKey of that BER, a level slot
// other than the point's own dense entry's (nil off the window), or the
// Hits/Misses/Resets after the call. It returns how many resets fired
// while both the dense rows and the map held entries.
func matchMapMemo(t *testing.T, name string, s *BERSurface, n int, next func() surfacePoint) (crossed int) {
	t.Helper()
	ref := newMapSurface(t)
	for i := 0; i < n; i++ {
		p := next()
		mapped, resets := len(s.cache), s.stats.Resets
		got, key, slot := s.lookup(p.state, p.pe, p.age, p.shiftMv)
		want := ref.BER(p.state, p.pe, p.age, p.shiftMv)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s call %d %+v: BER %g, map memo %g", name, i, p, got, want)
		}
		if key != levelKey(got) {
			t.Fatalf("%s call %d %+v: key %d, levelKey %d", name, i, p, key, levelKey(got))
		}
		if e := denseEntry(s, p); (e == nil && slot != nil) || (e != nil && slot != &e.slot) {
			t.Fatalf("%s call %d %+v: slot %p, dense entry %p", name, i, p, slot, e)
		}
		if s.stats != ref.stats {
			t.Fatalf("%s call %d %+v: stats %+v, map memo %+v", name, i, p, s.stats, ref.stats)
		}
		if s.stats.Resets != resets && mapped > 0 && berSurfaceCap-mapped > 0 {
			crossed++ // the reset dropped dense and mapped entries alike
		}
	}
	return crossed
}

// TestSurfaceMatchesMapMemo: the dense window plus map fallback answers
// exactly like the map-only memo (see matchMapMemo), and hands out a
// level slot for dense points only. The random sequences walk more than
// berSurfaceCap distinct keys, so resets fire while both the dense rows
// and the map hold entries. The lifetime sequence reads as a device
// ageing under wear does: P/E drifts past the window's last row, ages
// grow past its headroom, and calibrated blocks read at shifted
// references, so the map path and its nil slots run beside the window.
func TestSurfaceMatchesMapMemo(t *testing.T) {
	crossed := 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		anchor := 1000 + rng.Intn(8000)
		maxAge := float64(100 + rng.Intn(1000))
		s, _ := newSurface(t, anchor, maxAge)
		var recent []surfacePoint
		crossed += matchMapMemo(t, fmt.Sprintf("seed %d", seed), s, 90000, func() surfacePoint {
			// Half the queries revisit a recent point, so hits interleave
			// with the misses that fill the surface past its cap.
			if len(recent) > 0 && rng.Intn(2) == 0 {
				return recent[rng.Intn(len(recent))]
			}
			p := randomPoint(rng, anchor, s.ageRows)
			if len(recent) < 512 {
				recent = append(recent, p)
			} else {
				recent[rng.Intn(len(recent))] = p
			}
			return p
		})
	}
	if crossed == 0 {
		t.Fatal("no reset fired with both the dense rows and the map populated")
	}

	t.Run("lifetime", func(t *testing.T) {
		const (
			anchor = 6000
			maxAge = 720.0
			epochs = 40
			reads  = 2000
		)
		s, _ := newSurface(t, anchor, maxAge)
		rng := rand.New(rand.NewSource(11))
		// Per epoch: wear grows by 4 P/E (past row 32 by epoch 8), the
		// data ages by one day (past the 48 h headroom by epoch 3), and
		// about a third of the reads hit calibrated blocks.
		shifts := []int{-160, -120, -80, -40}
		i := 0
		var dense, mapped int
		matchMapMemo(t, "lifetime", s, epochs*reads, func() surfacePoint {
			epoch := i / reads
			i++
			p := surfacePoint{
				state: ftl.BlockState(rng.Intn(2)),
				pe:    anchor + 4*epoch + rng.Intn(4),
				age:   rng.Float64()*maxAge + 24*float64(epoch),
			}
			if rng.Intn(3) == 0 {
				p.shiftMv = shifts[rng.Intn(len(shifts))]
			}
			if rng.Intn(500) == 0 {
				p.state = 2 // no such state: evaluated as a normal block
			}
			if p.shiftMv == 0 && p.state <= ftl.ReducedState && p.pe < anchor+densePERows && int(p.age) < s.ageRows {
				dense++
			} else {
				mapped++
			}
			return p
		})
		if s.stats.Resets == 0 || dense < reads || mapped < reads {
			t.Fatalf("lifetime stream too narrow: %d resets, %d dense and %d off-window points", s.stats.Resets, dense, mapped)
		}
	})
}

// Shifted evaluations memoize: the same probe repeated is a cache hit,
// and cached values agree with direct model evaluation.
func TestSurfaceShiftedMemo(t *testing.T) {
	s, p := newSurface(t, 6000, 720)
	a := s.BER(ftl.NormalState, 6000, 720, -120)
	miss := s.stats.Misses
	b := s.BER(ftl.NormalState, 6000, 720.7, -120) // same quantized age
	if a != b {
		t.Errorf("memoized %g != %g", a, b)
	}
	st := s.stats
	if st.Misses != miss || st.Hits == 0 {
		t.Errorf("repeat probe was not a cache hit: %+v", st)
	}
	if direct := p.normal.TotalBERShifted(6000, 720, -0.120); a != direct {
		t.Errorf("cached %g != direct %g", a, direct)
	}
	// A drift-tracking negative shift recovers BER at high wear+age.
	if nominal := s.BER(ftl.NormalState, 6000, 720, 0); a >= nominal {
		t.Error("negative shift did not reduce BER under heavy drift")
	}
}

// Inputs just outside the packed key's ranges are evaluated directly:
// the cache counters do not move, and the value equals the model's.
// The in-range neighbours of each point do pack, so the test pins the
// exact field edges.
func TestSurfaceKeyFallback(t *testing.T) {
	s, p := newSurface(t, 6000, 720)
	for _, tc := range []struct {
		state   ftl.BlockState
		pe      int
		age     float64
		shiftMv int
		model   *noise.BERModel
	}{
		{ftl.NormalState, 1 << 24, 720, 0, p.normal},
		{ftl.ReducedState, 6000, 1 << 26, -120, p.reduced},
		{ftl.NormalState, 6000, 720, -2049, p.normal},
		{ftl.ReducedState, 6000, 720, 2048, p.reduced},
		{ftl.NormalState, -1, 720, 0, p.normal},
		{ftl.NormalState, 6000, -1, 0, p.normal},
	} {
		before := s.stats
		got, key, slot := s.lookup(tc.state, tc.pe, tc.age, tc.shiftMv)
		if slot != nil {
			t.Errorf("BER(%v,%d,%g,%d) handed out a level slot", tc.state, tc.pe, tc.age, tc.shiftMv)
		}
		if st := s.stats; st != before {
			t.Errorf("BER(%v,%d,%g,%d) touched the cache: %+v -> %+v",
				tc.state, tc.pe, tc.age, tc.shiftMv, before, st)
		}
		want := tc.model.TotalBERShifted(tc.pe, float64(int(tc.age)), float64(tc.shiftMv)/1000)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("BER(%v,%d,%g,%d) = %g, direct %g", tc.state, tc.pe, tc.age, tc.shiftMv, got, want)
		}
		if key != levelKey(got) {
			t.Errorf("BER(%v,%d,%g,%d) key %d, want levelKey %d", tc.state, tc.pe, tc.age, tc.shiftMv, key, levelKey(got))
		}
	}
	// Every field at its edges packs, and no two such inputs share a key.
	seen := map[int64]bool{}
	for _, state := range []ftl.BlockState{ftl.NormalState, ftl.ReducedState} {
		for _, pe := range []int{0, 1<<24 - 1} {
			for _, ageQ := range []int{0, 1<<26 - 1} {
				for _, shiftMv := range []int{-2048, 0, 2047} {
					key, ok := surfaceKey(state, pe, ageQ, shiftMv)
					if !ok {
						t.Errorf("surfaceKey(%v,%d,%d,%d) fell back; want it packed", state, pe, ageQ, shiftMv)
					}
					if seen[key] {
						t.Errorf("surfaceKey(%v,%d,%d,%d) = %#x collides", state, pe, ageQ, shiftMv, key)
					}
					seen[key] = true
				}
			}
		}
	}
}

// surfaceSink keeps the benchmarked lookups' results live.
var surfaceSink int64

// BenchmarkBERSurfaceHit measures a steady-state nominal read's surface
// lookup: shift-0 points inside the dense window, every one a hit.
func BenchmarkBERSurfaceHit(b *testing.B) {
	s, _ := newSurface(b, 6000, 720)
	rng := rand.New(rand.NewSource(1))
	pts := make([]surfacePoint, 4096)
	for i := range pts {
		pts[i] = surfacePoint{
			state: ftl.BlockState(rng.Intn(2)),
			pe:    6000 + rng.Intn(4),
			age:   rng.Float64() * 720,
		}
		s.lookup(pts[i].state, pts[i].pe, pts[i].age, 0)
	}
	misses := s.stats.Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &pts[i&(len(pts)-1)]
		_, surfaceSink, _ = s.lookup(p.state, p.pe, p.age, 0)
	}
	b.StopTimer()
	if s.stats.Misses != misses {
		b.Fatal("steady-state lookups missed")
	}
}

// BenchmarkBERSurfaceMiss measures a fresh runner's surface misses:
// every lookup misses the surface and evaluates the point's BER model.
func BenchmarkBERSurfaceMiss(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]surfacePoint, 0, 4096)
	seen := map[int64]bool{}
	for len(pts) < cap(pts) {
		p := surfacePoint{
			state: ftl.BlockState(rng.Intn(2)),
			pe:    6000 + rng.Intn(8),
			age:   float64(rng.Intn(720)),
		}
		if key, _ := surfaceKey(p.state, p.pe, int(p.age), 0); !seen[key] {
			seen[key] = true
			pts = append(pts, p)
		}
	}
	phys := newPhysics(b)
	var s *BERSurface
	misses := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(pts) == 0 {
			b.StopTimer()
			if s != nil {
				misses += s.stats.Misses
			}
			s = NewBERSurface(phys.ber, 6000, 720)
			b.StartTimer()
		}
		p := &pts[i%len(pts)]
		_, surfaceSink, _ = s.lookup(p.state, p.pe, p.age, 0)
	}
	b.StopTimer()
	if misses += s.stats.Misses; misses != int64(b.N) {
		b.Fatalf("%d of %d lookups missed the fresh surfaces", misses, b.N)
	}
}
