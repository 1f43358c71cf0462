package core

import (
	"math"
	"math/rand"
	"testing"

	"flexlevel/internal/ftl"
	"flexlevel/internal/ssd"
)

// mapSurface is the reference memo: the map-only surface the dense
// window replaced, with its own counters.
type mapSurface struct {
	models *BERSurface // eval only
	cache  map[int64]float64
	stats  ssd.CacheStats
}

func (r *mapSurface) BER(state ftl.BlockState, pe int, ageHours float64, shiftMv int) float64 {
	ageQ := int(ageHours)
	key, ok := surfaceKey(state, pe, ageQ, shiftMv)
	if !ok {
		return r.models.eval(state, pe, ageQ, shiftMv)
	}
	if v, hit := r.cache[key]; hit {
		r.stats.Hits++
		return v
	}
	r.stats.Misses++
	v := r.models.eval(state, pe, ageQ, shiftMv)
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

// TestSurfaceMatchesMapMemo: over random query sequences the dense
// window plus map fallback answers exactly like the map-only memo — the
// same BER bits, a level key equal to ssd.LevelKey of that BER, and the
// same Hits/Misses/Resets after every call. The sequences walk more
// than berSurfaceCap distinct keys, so resets fire while both the dense
// rows and the map hold entries.
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
		models, err := newBERSurface("NUNMA 3", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref := &mapSurface{models: models, cache: map[int64]float64{}}
		var recent []surfacePoint
		for i := 0; i < 90000; i++ {
			// Half the queries revisit a recent point, so hits interleave
			// with the misses that fill the surface past its cap.
			var p surfacePoint
			if len(recent) > 0 && rng.Intn(2) == 0 {
				p = recent[rng.Intn(len(recent))]
			} else {
				p = randomPoint(rng, anchor, s.ageRows)
				if len(recent) < 512 {
					recent = append(recent, p)
				} else {
					recent[rng.Intn(len(recent))] = p
				}
			}
			mapped, resets := len(s.cache), s.stats.Resets
			got, key := s.BER(p.state, p.pe, p.age, p.shiftMv)
			want := ref.BER(p.state, p.pe, p.age, p.shiftMv)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d call %d %+v: BER %g, map memo %g", seed, i, p, got, want)
			}
			if key != ssd.LevelKey(got) {
				t.Fatalf("seed %d call %d %+v: key %d, LevelKey %d", seed, i, p, key, ssd.LevelKey(got))
			}
			if s.Stats() != ref.stats {
				t.Fatalf("seed %d call %d %+v: stats %+v, map memo %+v", seed, i, p, s.Stats(), ref.stats)
			}
			if s.stats.Resets != resets && mapped > 0 && berSurfaceCap-mapped > 0 {
				crossed++ // the reset dropped dense and mapped entries alike
			}
		}
	}
	if crossed == 0 {
		t.Fatal("no reset fired with both the dense rows and the map populated")
	}
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
		_, surfaceSink = s.BER(p.state, p.pe, p.age, 0)
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
		_, surfaceSink = s.BER(p.state, p.pe, p.age, 0)
	}
	b.StopTimer()
	if misses += s.Stats().Misses; misses != int64(b.N) {
		b.Fatalf("%d of %d lookups missed the fresh surfaces", misses, b.N)
	}
}
