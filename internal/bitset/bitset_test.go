package bitset

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.n != 130 {
		t.Fatalf("Len = %d, want 130", s.n)
	}
	if s.Count() != 0 {
		t.Fatalf("fresh set count = %d", s.Count())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Set(i)
		if !s.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d, want 8", s.Count())
	}
	if m, ok := s.Max(); !ok || m != 129 {
		t.Fatalf("Max = %d,%v, want 129,true", m, ok)
	}
	s.Clear(129)
	s.Clear(128)
	if m, ok := s.Max(); !ok || m != 127 {
		t.Fatalf("Max after clears = %d,%v, want 127,true", m, ok)
	}
	if s.Get(129) {
		t.Fatal("bit 129 still set after Clear")
	}
	// Out-of-range reads are clear, not panics.
	if s.Get(-1) || s.Get(130) || s.Get(1<<20) {
		t.Fatal("out-of-range Get returned true")
	}
}

func TestMaxEmpty(t *testing.T) {
	s := New(200)
	if _, ok := s.Max(); ok {
		t.Fatal("Max of empty set reported ok")
	}
	s.Set(77)
	s.Reset()
	if _, ok := s.Max(); ok {
		t.Fatal("Max after Reset reported ok")
	}
}

func TestRangeAscending(t *testing.T) {
	s := New(300)
	want := []int{3, 64, 65, 130, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.Range(func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range order %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	s.Range(func(int) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early-stopped Range visited %d, want 2", n)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(100)
	s.Set(10)
	c := s.Clone()
	c.Set(20)
	s.Clear(10)
	if !c.Get(10) || !c.Get(20) {
		t.Fatal("clone lost bits after mutating original")
	}
	if s.Get(20) {
		t.Fatal("original gained clone's bit")
	}
}

// TestAgainstMap cross-checks the set against a reference map under a
// random operation stream.
func TestAgainstMap(t *testing.T) {
	const n = 517
	rng := rand.New(rand.NewSource(1))
	s := New(n)
	ref := map[int]bool{}
	for op := 0; op < 20000; op++ {
		i := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			s.Set(i)
			ref[i] = true
		case 1:
			s.Clear(i)
			delete(ref, i)
		case 2:
			if s.Get(i) != ref[i] {
				t.Fatalf("op %d: Get(%d) = %v, ref %v", op, i, s.Get(i), ref[i])
			}
		}
	}
	if s.Count() != len(ref) {
		t.Fatalf("count %d, ref %d", s.Count(), len(ref))
	}
	wantMax := -1
	for i := range ref {
		if i > wantMax {
			wantMax = i
		}
	}
	if m, ok := s.Max(); ok != (wantMax >= 0) || (ok && m != wantMax) {
		t.Fatalf("Max = %d,%v, ref %d", m, ok, wantMax)
	}
}

func TestPanics(t *testing.T) {
	s := New(10)
	for _, fn := range []func(){func() { s.Set(10) }, func() { s.Clear(-1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range mutation did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestBytes(t *testing.T) {
	if b := New(0).Bytes(); b != 0 {
		t.Fatalf("empty set bytes = %d", b)
	}
	if b := New(65).Bytes(); b != 16 {
		t.Fatalf("65-bit set bytes = %d, want 16", b)
	}
}
