package exp

import (
	"bytes"
	"strings"
	"testing"

	"flexlevel/internal/core"
)

func TestReliabilitySweep(t *testing.T) {
	cfg := SimConfig{Requests: 12000, Seed: 2, PE: 6000}
	// 4x the default rates so a short run still retires blocks; much
	// higher and the device degrades during preload.
	rows, err := Reliability(cfg, []float64{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(ReliabilitySystems()) {
		t.Fatalf("%d rows, want %d", len(rows), 2*len(ReliabilitySystems()))
	}
	for _, r := range rows {
		if r.Scale == 0 {
			if r.RetiredBlocks != 0 || r.TransientReadFaults != 0 || r.DataLoss != 0 {
				t.Errorf("scale 0 under %v injected faults: %+v", r.System, r.Metrics)
			}
			continue
		}
		if r.RetiredBlocks == 0 {
			t.Errorf("scale %g under %v retired no blocks", r.Scale, r.System)
		}
		if r.TransientReadFaults == 0 {
			t.Errorf("scale %g under %v saw no transient read faults", r.Scale, r.System)
		}
	}

	var buf bytes.Buffer
	PrintReliability(&buf, rows)
	out := buf.String()
	for _, want := range []string{"Reliability under fault injection", "read-latency impact", core.FlexLevel.String()} {
		if !strings.Contains(out, want) {
			t.Errorf("printout missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := reliabilityCSV.Write(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(rows) {
		t.Fatalf("%d CSV lines, want header + %d rows", len(lines), len(rows))
	}
	if !strings.HasPrefix(lines[0], "scale,system,") {
		t.Errorf("bad CSV header %q", lines[0])
	}
}
