package main

import (
	"bytes"
	"math"
	"strconv"
	"testing"
)

func TestCheckPointRejectsImpossiblePoints(t *testing.T) {
	for _, tc := range []struct {
		pe    int
		hours float64
	}{
		{-5, 720},
		{6000, -10},
		{-5, -10},
		{6000, math.NaN()},
		{6000, math.Inf(1)},
		{6000, math.Inf(-1)},
	} {
		if err := checkPoint(tc.pe, tc.hours); err == nil {
			t.Errorf("checkPoint(%d, %v) accepted an impossible point", tc.pe, tc.hours)
		}
	}
	for _, tc := range []struct {
		pe    int
		hours float64
	}{
		{0, 0},
		{6000, 720},
		{3000, 0.5},
	} {
		if err := checkPoint(tc.pe, tc.hours); err != nil {
			t.Errorf("checkPoint(%d, %v) = %v, want nil", tc.pe, tc.hours, err)
		}
	}
}

// The stdout of a small fixed-seed sweep (-frames 4 -bers 0.004,0.01),
// pinned byte for byte: any change to the shared frame loop, its draw
// order or the decoders shows up here.
const (
	wantIRA = `LDPC (ira): n=1152 k=1024 rate=0.889, 4 frames per point
BER           flooding FER [95% CI]       layered FER [95% CI]
0.0040      0.000 [0.000, 0.490]       0.000 [0.000, 0.490]   iters 3.5 vs 2.2
0.0100      0.250 [0.046, 0.699]       0.250 [0.046, 0.699]   iters 16.5 vs 11.8

LDPC hard bit-flip (ira):
BER                    FER [95% CI]
0.0040      0.250 [0.046, 0.699]
0.0100      1.000 [0.510, 1.000]
`
	wantQC = `LDPC (qc): n=1332 k=1184 rate=0.889, 4 frames per point
BER           flooding FER [95% CI]       layered FER [95% CI]
0.0040      0.000 [0.000, 0.490]       0.000 [0.000, 0.490]   iters 2.2 vs 1.2
0.0100      0.500 [0.150, 0.850]       0.250 [0.046, 0.699]   iters 20.5 vs 12.5

LDPC hard bit-flip (qc):
BER                    FER [95% CI]
0.0040      0.000 [0.000, 0.490]
0.0100      1.000 [0.510, 1.000]
`
)

func TestFerStdoutPinned(t *testing.T) {
	for _, tc := range []struct{ construction, want string }{
		{"ira", wantIRA},
		{"qc", wantQC},
	} {
		var buf bytes.Buffer
		if err := ferCmd(&buf, []string{"-frames", "4", "-bers", "0.004,0.01", "-construction", tc.construction}); err != nil {
			t.Fatalf("%s: %v", tc.construction, err)
		}
		if got := buf.String(); got != tc.want {
			t.Errorf("%s stdout changed:\n got:\n%s\nwant:\n%s", tc.construction, got, tc.want)
		}
	}
}

func TestFerRejectsUnsimulablePoints(t *testing.T) {
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
		if err := ferCmd(&buf, []string{"-frames", strconv.Itoa(tc.frames), "-bers", tc.bers}); err == nil {
			t.Errorf("-frames %d -bers %s accepted", tc.frames, tc.bers)
		}
		if buf.Len() > 0 {
			t.Errorf("-frames %d -bers %s printed %q before rejecting", tc.frames, tc.bers, buf.String())
		}
	}
}

// TestTracegenStdoutPinned pins small tracegen outputs byte for byte: a
// trace, a tenant spec, the workload list and a summary.
func TestTracegenStdoutPinned(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-w", "fin-2", "-n", "20"}, `arrival_us,op,lpn,pages
1899,read,0,1
2289,read,293,1
5117,read,294,1
6463,read,1,1
8260,write,4101,2
8447,read,15,1
8594,read,2,1
8809,read,0,1
10658,read,5,2
11764,write,4387,1
14723,write,5562,1
15050,read,0,1
15244,read,52,1
16807,read,38,1
21351,read,19,1
21926,read,1,1
23078,read,6,1
23080,read,0,2
27357,read,1,1
30275,read,6,1
`},
		{[]string{"-tenants", "3"}, `tenant,weight,model,read_ratio,zipf_s,base,working_set,mean_pages,seq_prob,duty,period_us,amplitude
oltp,4,burst,0.82,1.3,0,8192,1.2,0.05,0.25,250000,0.5
web,2,diurnal,0.98,1.4,4096,16384,1.5,0.05,0.5,500000,0.8
batch,2,steady,0.45,1.1,16384,8192,2.5,0.3,0.5,250000,0.5
`},
		{[]string{"-list"}, `fin-2    OLTP               reads=82% zipf=1.30 workingset=8192 pages
web-1    web search         reads=99% zipf=1.40 workingset=16384 pages
web-2    web search         reads=98% zipf=1.35 workingset=16384 pages
prj-1    research project   reads=45% zipf=1.10 workingset=16384 pages
prj-2    research project   reads=55% zipf=1.15 workingset=16384 pages
win-1    PC                 reads=60% zipf=1.20 workingset=8192 pages
win-2    PC                 reads=65% zipf=1.20 workingset=8192 pages
`},
		{[]string{"-summary", "-n", "500"}, `workload:   fin-2 (OLTP)
requests:   500 (422 reads, 78 writes)
pages:      510 read, 91 written
span:       934.419821ms
`},
	} {
		var buf bytes.Buffer
		if err := tracegenCmd(&buf, tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got := buf.String(); got != tc.want {
			t.Errorf("%v stdout changed:\n got:\n%s\nwant:\n%s", tc.args, got, tc.want)
		}
	}
}

// TestTracegenRejectsBadCounts: a negative tenant count and a zero-page
// device are refused before any mode prints.
func TestTracegenRejectsBadCounts(t *testing.T) {
	for _, args := range [][]string{
		{"-tenants", "-2"},
		{"-pages", "0"},
		{"-list", "-pages", "0"},
		{"-summary", "-pages", "0"},
		{"-tenants", "3", "-pages", "0"},
	} {
		var buf bytes.Buffer
		if err := tracegenCmd(&buf, args); err == nil {
			t.Errorf("%v accepted", args)
		}
		if buf.Len() > 0 {
			t.Errorf("%v printed %q before rejecting", args, buf.String())
		}
	}
}
