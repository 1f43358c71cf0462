package server

import (
	"context"
	"net/http"
	"net/url"
	"testing"
	"time"

	"flexlevel/internal/core"
)

// FuzzServeHTTP drives the request parser with arbitrary query strings.
// Invariants: it never panics, and every op it accepts names a known
// tenant, spans 1..DefaultMaxPages pages that end inside the tenant's
// window with no wraparound, and carries either no deadline (0) or a
// positive one: a client's deadline never turns into the server default.
func FuzzServeHTTP(f *testing.F) {
	s, err := New(Config{System: core.Baseline, PE: 6000, Seed: 1, FTL: smallFTL(), Tenants: testTenants()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	for _, q := range []string{
		"tenant=alpha&lpn=5&pages=2",
		"tenant=beta&lpn=1023&pages=1&deadline_us=250",
		"tenant=alpha&lpn=1020&pages=9",
		"tenant=alpha&lpn=18446744073709551615&pages=64",
		"tenant=alpha&lpn=1&pages=-1",
		"tenant=alpha&lpn=1&deadline_us=1e16", // overflows int64 ns
		"tenant=alpha&lpn=1&deadline_us=1e-4", // rounds to 0 ns
		"tenant=alpha&lpn=1&deadline_us=NaN",
		"tenant=alpha&lpn=1&deadline_us=-Inf",
		"tenant=nobody&lpn=0",
		"tenant=alpha&tenant=beta&lpn=0;pages=3",
		"%zz",
	} {
		f.Add(q, false)
		f.Add(q, true)
	}
	f.Fuzz(func(t *testing.T, query string, write bool) {
		o, name, err := s.parseOp(&http.Request{URL: &url.URL{RawQuery: query}}, write)
		if err != nil {
			return
		}
		if o.tenant < 0 || o.tenant >= len(s.cfg.Tenants) || s.cfg.Tenants[o.tenant].Name != name {
			t.Fatalf("%q: op tenant %d does not name %q", query, o.tenant, name)
		}
		ws := s.cfg.Tenants[o.tenant].WorkingSet
		end := o.lpn + uint64(o.pages)
		if o.pages < 1 || o.pages > DefaultMaxPages || end < o.lpn || end > ws {
			t.Fatalf("%q: accepted [%d,+%d) in a %d-page window", query, o.lpn, o.pages, ws)
		}
		if o.deadline < 0 {
			t.Fatalf("%q: accepted deadline %v", query, o.deadline)
		}
		if o.write != write {
			t.Fatalf("%q: write flag %v, want %v", query, o.write, write)
		}
	})
}
