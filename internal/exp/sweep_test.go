package exp

import (
	"context"
	"io"
	"strings"
	"testing"

	"flexlevel/internal/runner"
)

// discard is an Emit that drops every artifact.
func discard(string, func(io.Writer) error) error { return nil }

// TestFig7HeaderPE: the Fig. 7 table names the P/E its grid ran at.
func TestFig7HeaderPE(t *testing.T) {
	s, _ := Lookup("fig7")
	var out strings.Builder
	env := &Env{Sim: SimConfig{Requests: 300, Seed: 1, PE: 4000}, Out: &out, Emit: discard}
	if err := s.Run(env); err != nil {
		t.Fatal(err)
	}
	head, _, _ := strings.Cut(out.String(), "\n")
	if !strings.HasSuffix(head, "(vs LDPC-in-SSD, P/E 4000)") {
		t.Errorf("header %q does not name P/E 4000", head)
	}
}

// TestGridReplayedOnce: fig6a, fig6b and fig7 in one Env replay the
// P/E-6000 grid once, and a cancelled grid is replayed again rather
// than reused.
func TestGridReplayedOnce(t *testing.T) {
	replays := map[string]int{}
	cfg := SimConfig{Requests: 300, Seed: 1, PE: 6000,
		OnSummary: func(s *runner.Summary) { replays[s.Name]++ }}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx
	env := &Env{Sim: cfg, Out: io.Discard, Emit: discard}
	fig6a, _ := Lookup("fig6a")
	if err := fig6a.Run(env); err == nil {
		t.Fatal("cancelled grid succeeded")
	}
	env.Sim.Ctx = nil
	for _, name := range []string{"fig6a", "fig6b", "fig7"} {
		s, _ := Lookup(name)
		if err := s.Run(env); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int{"fig6a-pe4000": 1, "fig6a-pe5000": 1, "fig6a-pe6000": 2}
	for name, n := range want {
		if replays[name] != n {
			t.Errorf("%s replayed %d times, want %d (all: %v)", name, replays[name], n, replays)
		}
	}
}
