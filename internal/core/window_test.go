package core

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// eagerWindow is the reference rule the serve daemon used before it
// shared Window: drop every completion at or before the arrival, then,
// if the window is still full, wait for the earliest one.
type eagerWindow struct {
	qd   int
	done []time.Duration // sorted ascending
}

func (e *eagerWindow) submit(arrival time.Duration) time.Duration {
	i := sort.Search(len(e.done), func(i int) bool { return e.done[i] > arrival })
	e.done = e.done[i:]
	if len(e.done) >= e.qd {
		return e.done[0]
	}
	return arrival
}

func (e *eagerWindow) complete(done time.Duration) {
	if len(e.done) >= e.qd {
		e.done = e.done[1:]
	}
	i := sort.Search(len(e.done), func(i int) bool { return e.done[i] > done })
	e.done = append(e.done, 0)
	copy(e.done[i+1:], e.done[i:])
	e.done[i] = done
}

// TestWindowMatchesEagerDrop drives Window and the eager-drop reference
// at depths 0-8 with nondecreasing arrivals (many ties), random service
// times, shed ops (Submit without Complete) and crash resets, and
// requires every submit time to match exactly.
func TestWindowMatchesEagerDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		qd := rng.Intn(9) // 0 clamps to depth 1
		w := NewWindow(qd)
		ref := &eagerWindow{qd: max(qd, 1)}
		var arrival time.Duration
		for op := 0; op < 400; op++ {
			if rng.Intn(3) > 0 {
				arrival += time.Duration(rng.Intn(4)) * time.Microsecond
			}
			if rng.Intn(60) == 0 {
				w.Reset()
				ref.done = ref.done[:0]
			}
			got, want := w.Submit(arrival), ref.submit(arrival)
			if got != want {
				t.Fatalf("trial %d qd %d op %d: submit %v, reference %v", trial, qd, op, got, want)
			}
			if rng.Intn(5) == 0 {
				continue // shed: the op never reaches the device
			}
			done := got + time.Duration(rng.Intn(12))*time.Microsecond
			w.Complete(done)
			ref.complete(done)
		}
	}
}
