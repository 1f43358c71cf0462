package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"flexlevel/internal/core"
)

var (
	costLine = regexp.MustCompile(`^ {25}programs (\d+), erases \d+, WA \d+\.\d\d, migrations \d+, capacity loss \d+\.\d%$`)
	histLine = regexp.MustCompile(`^ {25}sensing levels per read: \[((?:\d+ ){7}\d+)\]$`)
)

// TestReplayPrintsDetail replays a small tracegen CSV trace and a small
// MSR trace through all four systems and checks that every system's
// comparison line is followed by its write-cost and sensing-histogram
// detail lines.
func TestReplayPrintsDetail(t *testing.T) {
	dir := t.TempDir()
	traces := map[string]string{
		"csv": "arrival_us,op,lpn,pages\n" +
			"0,write,10,2\n100,read,10,1\n250,read,11,1\n400,write,40,1\n600,read,40,1\n900,read,3,4\n",
		"msr": "128166372003061629,vol,0,Read,32768,16384,100\n" +
			"128166372004061629,vol,0,Write,65536,32768,100\n" +
			"128166372005061629,vol,0,Read,32768,16384,100\n" +
			"128166372006061629,vol,0,Read,98304,16384,100\n",
	}
	for format, body := range traces {
		t.Run(format, func(t *testing.T) {
			path := filepath.Join(dir, "t."+format)
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := replay(&out, path, format, 6000); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			if want := 1 + 3*len(core.Systems()); len(lines) != want {
				t.Fatalf("%d lines, want %d:\n%s", len(lines), want, out.String())
			}
			if !strings.HasPrefix(lines[0], "replaying ") || !strings.Contains(lines[0], "("+format+" format) at P/E 6000") {
				t.Fatalf("header %q", lines[0])
			}
			for i, sys := range core.Systems() {
				head, cost, hist := lines[1+3*i], lines[2+3*i], lines[3+3*i]
				if !strings.HasPrefix(strings.TrimSpace(head), sys.String()+" ") || !strings.Contains(head, "p99 read") {
					t.Errorf("%s: comparison line %q", sys, head)
				}
				if m := costLine.FindStringSubmatch(cost); m == nil || m[1] == "0" {
					t.Errorf("%s: cost line %q", sys, cost)
				}
				m := histLine.FindStringSubmatch(hist)
				if m == nil {
					t.Fatalf("%s: histogram line %q", sys, hist)
				}
				reads := 0
				for _, f := range strings.Fields(m[1]) {
					n, err := strconv.Atoi(f)
					if err != nil {
						t.Fatalf("%s: histogram line %q: %v", sys, hist, err)
					}
					reads += n
				}
				if reads == 0 {
					t.Errorf("%s: empty histogram %q", sys, hist)
				}
			}
		})
	}
}

func TestReplayErrors(t *testing.T) {
	var out bytes.Buffer
	if err := replay(&out, "", "csv", 6000); err == nil || !strings.Contains(err.Error(), "replay needs -in") {
		t.Errorf("missing -in: err %v", err)
	}
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, []byte("arrival_us,op,lpn,pages\n0,read,1,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := replay(&out, path, "blk", 6000); err == nil || !strings.Contains(err.Error(), `unknown trace format "blk"`) {
		t.Errorf("unknown -format: err %v", err)
	}
	// Requests past the device's logical pages (here also overflowing
	// LPN+Pages) are refused before any system replays them.
	big := filepath.Join(t.TempDir(), "big.csv")
	if err := os.WriteFile(big, []byte("arrival_us,op,lpn,pages\n0,read,18446744073709551615,200000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := replay(&out, big, "csv", 6000); err == nil || !strings.Contains(err.Error(), "outside working set") {
		t.Errorf("out-of-device request: err %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("failed replays printed %q", out.String())
	}
}
