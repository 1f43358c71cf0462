package main

import (
	"bytes"
	"testing"
)

// The stdout of a small fixed-seed sweep (-frames 4 -bers 0.004,0.01,
// BCH on), pinned byte for byte: any change to the shared frame loop,
// its draw order or the decoders shows up here.
const (
	wantIRA = `LDPC (ira): n=1152 k=1024 rate=0.889, 4 frames per point
BER           flooding FER [95% CI]       layered FER [95% CI]
0.0040      0.000 [0.000, 0.490]       0.000 [0.000, 0.490]   iters 3.5 vs 2.2
0.0100      0.250 [0.046, 0.699]       0.250 [0.046, 0.699]   iters 16.5 vs 11.8

LDPC hard bit-flip (ira):
BER                    FER [95% CI]
0.0040      0.250 [0.046, 0.699]
0.0100      1.000 [0.510, 1.000]

BCH (n=255, k=191, t=8):
BER                    FER [95% CI]
0.0040      0.000 [0.000, 0.490]
0.0100      0.000 [0.000, 0.490]
`
	wantQC = `LDPC (qc): n=1332 k=1184 rate=0.889, 4 frames per point
BER           flooding FER [95% CI]       layered FER [95% CI]
0.0040      0.000 [0.000, 0.490]       0.000 [0.000, 0.490]   iters 2.2 vs 1.2
0.0100      0.500 [0.150, 0.850]       0.250 [0.046, 0.699]   iters 20.5 vs 12.5

LDPC hard bit-flip (qc):
BER                    FER [95% CI]
0.0040      0.000 [0.000, 0.490]
0.0100      1.000 [0.510, 1.000]

BCH (n=255, k=191, t=8):
BER                    FER [95% CI]
0.0040      0.000 [0.000, 0.490]
0.0100      0.000 [0.000, 0.490]
`
)

func TestRunStdoutPinned(t *testing.T) {
	for _, tc := range []struct{ construction, want string }{
		{"ira", wantIRA},
		{"qc", wantQC},
	} {
		var buf bytes.Buffer
		if err := run(&buf, 4, "0.004,0.01", tc.construction, 1, true); err != nil {
			t.Fatalf("%s: %v", tc.construction, err)
		}
		if got := buf.String(); got != tc.want {
			t.Errorf("%s stdout changed:\n got:\n%s\nwant:\n%s", tc.construction, got, tc.want)
		}
	}
}

func TestRunRejectsUnsimulablePoints(t *testing.T) {
	for _, tc := range []struct {
		frames int
		bers   string
	}{
		{4, "NaN"},
		{4, "0.004,NaN"},
		{4, "0"},
		{4, "-0.01"},
		{4, "0.5"},
		{4, "+Inf"},
		{4, "abc"},
		{0, "0.004"},
		{-3, "0.004"},
	} {
		var buf bytes.Buffer
		if err := run(&buf, tc.frames, tc.bers, "ira", 1, false); err == nil {
			t.Errorf("-frames %d -bers %s accepted", tc.frames, tc.bers)
		}
		if buf.Len() > 0 {
			t.Errorf("-frames %d -bers %s printed %q before rejecting", tc.frames, tc.bers, buf.String())
		}
	}
}
