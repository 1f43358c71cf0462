package exp

import (
	"fmt"
	"sync"
	"testing"

	"flexlevel/internal/runner"
	"flexlevel/internal/trace"
)

// TestStreamsShareOnePerKey drives the per-sweep stream cache the way
// the Fig. 6(a) grid does — seven streams of four contiguous cells each
// — at several worker counts. Every cell of a stream must get the same
// slice, no stream may be generated twice, and no more than workers + 1
// streams may be live at once.
func TestStreamsShareOnePerKey(t *testing.T) {
	const streamsN, cellsPer = 7, 4
	for _, workers := range []int{1, 2, 3, 8} {
		var keys []string
		for k := 0; k < streamsN; k++ {
			for c := 0; c < cellsPer; c++ {
				keys = append(keys, fmt.Sprintf("w%d", k))
			}
		}
		var mu sync.Mutex
		made := map[string]int{}
		// peak is the most streams live when one is generated: a
		// stream goes live just before its generation, so this is the
		// most live at once.
		peak := 0
		var st *streams[string]
		st = newStreams(keys, func(key string) ([]trace.Request, error) {
			st.mu.Lock()
			live := len(st.live)
			st.mu.Unlock()
			mu.Lock()
			made[key]++
			peak = max(peak, live)
			mu.Unlock()
			return make([]trace.Request, 16), nil
		})
		got, _, err := runner.Map(nil, runner.Config{Workers: workers}, keys,
			func(i int, key string) string { return fmt.Sprintf("%d/%s", i, key) },
			func(_ runner.Shard, key string) (*trace.Request, error) {
				reqs, err := st.get(key)
				defer st.put(key)
				if err != nil {
					return nil, err
				}
				return &reqs[0], nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for i, key := range keys {
			if made[key] != 1 {
				t.Fatalf("workers %d: stream %s generated %d times", workers, key, made[key])
			}
			if first := got[i-i%cellsPer]; got[i] != first {
				t.Fatalf("workers %d: cell %d got a different slice of stream %s", workers, i, key)
			}
		}
		if peak > workers+1 {
			t.Fatalf("workers %d: %d streams live at once", workers, peak)
		}
		if len(st.live) != 0 || len(st.users) != 0 {
			t.Fatalf("workers %d: %d streams still held after the sweep", workers, len(st.live))
		}
	}
}

// TestStreamsRefuseUndeclaredKey: a cell asking for a stream no cell
// declared is a sweep bug and fails rather than generating it.
func TestStreamsRefuseUndeclaredKey(t *testing.T) {
	st := newStreams([]string{"a"}, func(string) ([]trace.Request, error) { return nil, nil })
	if _, err := st.get("b"); err == nil {
		t.Fatal("undeclared stream was handed out")
	}
}
