package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"flexlevel/internal/ftl"
	"flexlevel/internal/noise"
	"flexlevel/internal/ssd"
)

// mapSurface is the reference memo: the map-only surface the dense
// window replaced, with its own counters. It evaluates every point with
// the model's TotalBERShifted, so it also pins the surface's hoisted
// shift-0 interference term.
type mapSurface struct {
	normal, reduced *noise.BERModel
	cache           map[int64]float64
	stats           ssd.CacheStats
}

func newMapSurface(t *testing.T) *mapSurface {
	t.Helper()
	models, err := newBERSurface("NUNMA 3", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &mapSurface{normal: models.normal.BERModel, reduced: models.reduced.BERModel, cache: map[int64]float64{}}
}

func (r *mapSurface) eval(state ftl.BlockState, pe, ageQ, shiftMv int) float64 {
	m := r.normal
	if state == ftl.ReducedState {
		m = r.reduced
	}
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
// bits, a level key other than ssd.LevelKey of that BER, a level slot
// other than the point's own dense entry's (nil off the window), or the
// Hits/Misses/Resets after the call. It returns how many resets fired
// while both the dense rows and the map held entries.
func matchMapMemo(t *testing.T, name string, s *BERSurface, n int, next func() surfacePoint) (crossed int) {
	t.Helper()
	ref := newMapSurface(t)
	for i := 0; i < n; i++ {
		p := next()
		mapped, resets := len(s.cache), s.stats.Resets
		got, key, slot := s.BER(p.state, p.pe, p.age, p.shiftMv)
		want := ref.BER(p.state, p.pe, p.age, p.shiftMv)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s call %d %+v: BER %g, map memo %g", name, i, p, got, want)
		}
		if key != ssd.LevelKey(got) {
			t.Fatalf("%s call %d %+v: key %d, LevelKey %d", name, i, p, key, ssd.LevelKey(got))
		}
		if e := denseEntry(s, p); (e == nil && slot != nil) || (e != nil && slot != &e.slot) {
			t.Fatalf("%s call %d %+v: slot %p, dense entry %p", name, i, p, slot, e)
		}
		if s.Stats() != ref.stats {
			t.Fatalf("%s call %d %+v: stats %+v, map memo %+v", name, i, p, s.Stats(), ref.stats)
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
		s, err := newBERSurface("NUNMA 3", anchor, maxAge)
		if err != nil {
			t.Fatal(err)
		}
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
		s, err := newBERSurface("NUNMA 3", anchor, maxAge)
		if err != nil {
			t.Fatal(err)
		}
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

// surfaceSink keeps the benchmarked lookups' results live.
var surfaceSink int64

// BenchmarkBERSurfaceHit measures a steady-state nominal read's surface
// lookup: shift-0 points inside the dense window, every one a hit.
func BenchmarkBERSurfaceHit(b *testing.B) {
	s, err := newBERSurface("NUNMA 3", 6000, 720)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([]surfacePoint, 4096)
	for i := range pts {
		pts[i] = surfacePoint{
			state: ftl.BlockState(rng.Intn(2)),
			pe:    6000 + rng.Intn(4),
			age:   rng.Float64() * 720,
		}
		s.BER(pts[i].state, pts[i].pe, pts[i].age, 0)
	}
	misses := s.Stats().Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &pts[i&(len(pts)-1)]
		_, surfaceSink, _ = s.BER(p.state, p.pe, p.age, 0)
	}
	b.StopTimer()
	if s.Stats().Misses != misses {
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
	var s *BERSurface
	var err error
	misses := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(pts) == 0 {
			b.StopTimer()
			if s != nil {
				misses += s.Stats().Misses
			}
			if s, err = newBERSurface("NUNMA 3", 6000, 720); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		p := &pts[i%len(pts)]
		_, surfaceSink, _ = s.BER(p.state, p.pe, p.age, 0)
	}
	b.StopTimer()
	if misses += s.Stats().Misses; misses != int64(b.N) {
		b.Fatalf("%d of %d lookups missed the fresh surfaces", misses, b.N)
	}
}
