package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// zipfCase is one (s, imax) parameter set of the equivalence tests.
type zipfCase struct {
	s    float64
	imax uint64
}

// checkZipfMatches draws n variates from rand.Zipf and from the
// sampler, each on its own rng seeded alike, and fails on the first
// differing draw or when the two rngs end in different states.
func checkZipfMatches(t *testing.T, c zipfCase, seed int64, n int) {
	t.Helper()
	refRng := rand.New(rand.NewSource(seed))
	gotRng := rand.New(rand.NewSource(seed))
	ref := rand.NewZipf(refRng, c.s, 1, c.imax)
	got := newZipf(gotRng, c.s, 1, c.imax)
	for i := 0; i < n; i++ {
		if a, b := ref.Uint64(), got.Uint64(); a != b {
			t.Fatalf("s %v imax %d seed %d: draw %d is %d, rand.Zipf gives %d", c.s, c.imax, seed, i, b, a)
		}
	}
	if a, b := refRng.Int63(), gotRng.Int63(); a != b {
		t.Fatalf("s %v imax %d seed %d: rng state diverged after %d draws", c.s, c.imax, seed, n)
	}
}

// paperZipfCases are the (ZipfS, WorkingSet-1) pairs of the seven paper
// workloads on the default device's 32Ki-page logical space.
func paperZipfCases() []zipfCase {
	var out []zipfCase
	for _, w := range Workloads(1, 32768, 0) {
		out = append(out, zipfCase{w.ZipfS, w.WorkingSet - 1})
	}
	return out
}

func TestZipfMatchesStdlibPaperWorkloads(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	for _, c := range paperZipfCases() {
		t.Run(fmt.Sprintf("s=%v/imax=%d", c.s, c.imax), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed <= 20; seed++ {
				checkZipfMatches(t, c, seed, n)
			}
		})
	}
}

func TestZipfMatchesStdlibScenarioTenants(t *testing.T) {
	// DefaultTenants on the default device: oltp, web and batch.
	cases := []zipfCase{{1.30, 8191}, {1.40, 16383}, {1.10, 8191}}
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	for _, c := range cases {
		for seed := int64(0); seed < 3; seed++ {
			checkZipfMatches(t, c, seed, n)
		}
	}
}

func TestZipfMatchesStdlibRandomParams(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 5_000
	}
	cases := []zipfCase{
		{1.001, 0}, {1.001, 1}, {1.001, 2}, {1.001, 1 << 24},
		{4, 0}, {4, 1}, {4, 2}, {4, 1 << 24}, {2.5, 1 << 20},
	}
	rng := rand.New(rand.NewSource(7))
	for len(cases) < 240 {
		s := 1 + 3*(1-rng.Float64()) // (1, 4]
		imax := uint64(rng.Int63n(1<<uint(rng.Intn(25)) + 1))
		cases = append(cases, zipfCase{s, imax})
	}
	for i, c := range cases {
		checkZipfMatches(t, c, int64(i), n)
		z := newZipf(rand.New(rand.NewSource(0)), c.s, 1, c.imax)
		if want := min(uint64(zipfHead), c.imax+1); uint64(len(z.ranks)) != want {
			t.Fatalf("s %v imax %d: head table has %d ranks, want %d", c.s, c.imax, len(z.ranks), want)
		}
	}
	// Skews far beyond the workloads' underflow h within the head, which
	// cuts the table short; the stream must still match.
	for i, c := range []zipfCase{{8, 100}, {60, 1000}, {1000, 5}, {1000, 1 << 24}} {
		checkZipfMatches(t, c, int64(i), n)
	}
}

// TestZipfTableAtBoundaries probes every head rank's region, squeeze
// and acceptance boundaries at and around the table's margins, where
// random draws almost never land: wherever the table decides a try, it
// must decide it as the stdlib's arithmetic does.
func TestZipfTableAtBoundaries(t *testing.T) {
	for _, c := range append(paperZipfCases(), zipfCase{1.001, 1 << 24}, zipfCase{4, 1000}, zipfCase{1.5, 3}) {
		z := newZipf(rand.New(rand.NewSource(0)), c.s, 1, c.imax)
		for k := range z.ranks {
			kf := float64(k)
			for _, b := range []float64{z.h(kf - 0.5), z.h(kf + 0.5), z.h(kf - z.s), z.ranks[k].accept} {
				for _, rel := range []float64{0, 0x1p-50, 0x1p-40, 0x1p-33, zipfMargin, 0x1p-31, 0x1p-20} {
					for _, ur := range []float64{b + rel*math.Abs(b), b - rel*math.Abs(b),
						math.Nextafter(b+rel*math.Abs(b), 0), math.Nextafter(b-rel*math.Abs(b), math.Inf(-1))} {
						if ur < z.urMin || ur > z.hxm {
							continue
						}
						gk, gok := z.try(ur)
						wk, wok := z.stdTry(ur)
						if gk != wk || gok != wok {
							t.Fatalf("s %v imax %d rank %d ur %v: table gives (%d, %v), stdlib (%d, %v)",
								c.s, c.imax, k, ur, gk, gok, wk, wok)
						}
					}
				}
			}
		}
	}
}

// BenchmarkZipfDraw prices one variate from rand.Zipf and from the
// sampler at prj-1's and web-1's skews.
func BenchmarkZipfDraw(b *testing.B) {
	for _, c := range []struct {
		name string
		zipfCase
	}{{"prj-1", zipfCase{1.10, 16383}}, {"web-1", zipfCase{1.40, 16383}}} {
		b.Run(c.name+"/stdlib", func(b *testing.B) {
			z := rand.NewZipf(rand.New(rand.NewSource(1)), c.s, 1, c.imax)
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum += z.Uint64()
			}
			zipfSink = sum
		})
		b.Run(c.name+"/table", func(b *testing.B) {
			z := newZipf(rand.New(rand.NewSource(1)), c.s, 1, c.imax)
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum += z.Uint64()
			}
			zipfSink = sum
		})
	}
}

var zipfSink uint64
