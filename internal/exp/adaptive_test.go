package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenAdaptive pins the adaptive-calibration sweep: byte-identical
// CSV at workers 1/2/3/8, checked against the committed golden file.
func TestGoldenAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive sweep is slow")
	}
	goldenSweep(t, "adaptive")
}

// readGoldenAdaptive loads and parses the committed adaptive artifact.
func readGoldenAdaptive(t *testing.T) ([]byte, []AdaptiveRow) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "adaptive.csv"))
	if err != nil {
		t.Skipf("no golden file yet: %v", err)
	}
	rows, err := adaptiveCSV.Read(bytes.NewReader(raw), nil)
	if err != nil {
		t.Fatal(err)
	}
	return raw, rows
}

// TestGoldenAdaptiveRoundTrip pins the CSV reader to the writer: the
// golden file must parse back into rows that re-serialize to the same
// bytes.
func TestGoldenAdaptiveRoundTrip(t *testing.T) {
	raw, rows := readGoldenAdaptive(t)
	var buf bytes.Buffer
	if err := adaptiveCSV.Write(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Errorf("adaptive CSV does not round-trip through adaptiveCSV")
	}
}

// TestAdaptiveDominatesStatic asserts the sweep's acceptance criterion
// on the committed artifact: at every grid point, the adaptive ladder is
// no worse than static references on mean sensing levels and unreadable
// reads — and strictly better wherever drift stresses the static scheme
// at all. The far corner must show static falling off the unreadable
// cliff and adaptive rescuing every one of those reads.
func TestAdaptiveDominatesStatic(t *testing.T) {
	_, rows := readGoldenAdaptive(t)
	keys, static, adaptive := adaptivePairs(rows)
	if len(keys) != len(AdaptiveSchemes())*len(AdaptivePEs)*len(AdaptiveAges) {
		t.Fatalf("golden artifact has %d grid points, want %d",
			len(keys), len(AdaptiveSchemes())*len(AdaptivePEs)*len(AdaptiveAges))
	}
	staticCliffPoints := 0
	for _, key := range keys {
		s, a := static[key], adaptive[key]
		if a.Scheme == "" {
			t.Fatalf("%s: no adaptive row", key)
		}
		if a.MeanLevels > s.MeanLevels {
			t.Errorf("%s: adaptive mean levels %.4f above static %.4f", key, a.MeanLevels, s.MeanLevels)
		}
		if s.MeanLevels > 0 && a.MeanLevels >= s.MeanLevels {
			t.Errorf("%s: adaptive did not strictly lower mean levels (%.4f vs %.4f)",
				key, a.MeanLevels, s.MeanLevels)
		}
		if a.Unreadable > s.Unreadable {
			t.Errorf("%s: adaptive unreadable %d above static %d", key, a.Unreadable, s.Unreadable)
		}
		if s.Unreadable > 0 {
			staticCliffPoints++
			if a.Unreadable != 0 {
				t.Errorf("%s: %d unreadable reads survived calibration (static had %d)",
					key, a.Unreadable, s.Unreadable)
			}
		}
		if s.MeanLevels > 0 && a.AvgRead >= s.AvgRead {
			t.Errorf("%s: adaptive read latency %.3e not below static %.3e despite level headroom",
				key, a.AvgRead, s.AvgRead)
		}
		if s.Recalibrations != 0 || s.CalibProbes != 0 || s.CalibRescues != 0 {
			t.Errorf("%s: static row reports calibration activity: %+v", key, s)
		}
	}
	// The grid must actually reach past the static cliff, or the rescue
	// claim above is vacuous.
	if staticCliffPoints < 3 {
		t.Errorf("only %d grid points drive static past the unreadable cliff, want >= 3", staticCliffPoints)
	}
}
