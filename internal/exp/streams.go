package exp

import (
	"fmt"
	"sync"

	"flexlevel/internal/core"
	"flexlevel/internal/trace"
)

// streams hands the cells of one sweep their request streams, so each
// distinct stream is generated once per sweep instead of once per cell.
// The sweep declares, in cell order, the key of the stream each cell
// replays. The first cell to get a key generates its stream; every
// other cell of that key shares the same slice, read-only; the key's
// last cell to put it drops it. runner.Map starts cells in index order,
// so when each key's cells are contiguous at most workers + 1 streams
// are live at once.
type streams[K comparable] struct {
	gen func(K) ([]trace.Request, error)

	mu    sync.Mutex
	users map[K]int        // cells that have yet to put each key
	live  map[K]*sharedReq // streams generated or being generated
}

// sharedReq is one generated stream and its generation error.
type sharedReq struct {
	once sync.Once
	reqs []trace.Request
	err  error
}

// newStreams declares keys, one per cell in cell order, and the
// generator of a key's stream.
func newStreams[K comparable](keys []K, gen func(K) ([]trace.Request, error)) *streams[K] {
	st := &streams[K]{gen: gen, users: make(map[K]int), live: make(map[K]*sharedReq)}
	for _, k := range keys {
		st.users[k]++
	}
	return st
}

// get returns key's stream, generating it on the key's first get. The
// caller must not modify it and must put the key when done, also when
// get fails.
func (st *streams[K]) get(key K) ([]trace.Request, error) {
	st.mu.Lock()
	if st.users[key] == 0 {
		st.mu.Unlock()
		return nil, fmt.Errorf("exp: no cell of the sweep declared stream %v", key)
	}
	e := st.live[key]
	if e == nil {
		e = new(sharedReq)
		st.live[key] = e
	}
	st.mu.Unlock()
	e.once.Do(func() { e.reqs, e.err = st.gen(key) })
	return e.reqs, e.err
}

// put ends one cell's use of key's stream; the last put drops it.
func (st *streams[K]) put(key K) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.users[key]--; st.users[key] <= 0 {
		delete(st.users, key)
		delete(st.live, key)
	}
}

// workloadStreams declares the workload each of n replaying cells
// replays, named by name(i), on the default device's logical space.
func (c SimConfig) workloadStreams(n int, name func(i int) string) (*streams[trace.Workload], error) {
	logical := core.DefaultOptions(core.Baseline, c.PE).SSD.FTL.LogicalPages
	keys := make([]trace.Workload, n)
	for i := range keys {
		w, err := trace.ByName(name(i), c.Requests, logical, c.Seed)
		if err != nil {
			return nil, err
		}
		keys[i] = w
	}
	return newStreams(keys, trace.Workload.Generate), nil
}
