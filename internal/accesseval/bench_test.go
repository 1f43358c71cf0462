package accesseval

import (
	"math/rand"
	"testing"

	"flexlevel/internal/sensing"
)

// BenchmarkAccessEvalOnRead measures one AccessEval read decision — a
// bloom-filter insert, the frequency lookup across every filter and the
// pool update — at the default parameters over a skewed read stream, the
// work the replay path does for every read.
func BenchmarkAccessEvalOnRead(b *testing.B) {
	const logical = 32768
	c, err := New(DefaultParams(logical))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, logical-1)
	const n = 1 << 16
	lpns, levels := make([]uint64, n), make([]int, n)
	for i := range lpns {
		lpns[i] = zipf.Uint64()
		levels[i] = rng.Intn(sensing.MaxExtraLevels + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.OnRead(lpns[i%n], levels[i%n])
	}
}
