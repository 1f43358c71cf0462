package exp

import (
	"bytes"
	"strings"
	"testing"

	"flexlevel/internal/csvtab"
)

// adaptiveSeeds and reliabilitySeeds are the seed inputs of the two
// artifact fuzzers that predate the table codec; lifetimeSeeds cover
// the third readable artifact that shipped with a reader.
var (
	adaptiveSeeds = []string{
		adaptiveCSV.Header() + "\n",
		adaptiveCSV.Header() + "\n" +
			"baseline-mlc,static,6000,2160,6.0704,1.403085e-03,4288,0,0,0,0,0,0,0\n",
		adaptiveCSV.Header() + "\n" +
			"NUNMA 1,adaptive,6000,2160,0.8041,3.450135e-04,0,0,0,110,880,75,75,0\n" +
			"NUNMA 3,static,4000,720,0.0000,1.424000e-04,0,0,0,0,0,0,0,0\n",
		adaptiveCSV.Header() + "\n" +
			"x,adaptive,0,0,0,0,0,0,0,0,0,0,0,0\n",
		adaptiveCSV.Header() + "\n" +
			"x,retry,6000,720,0,0,0,0,0,0,0,0,0,0\n",
		"scheme,mode\nx,static\n",
		"",
	}
	reliabilitySeeds = []string{
		reliabilityCSV.Header() + "\n",
		reliabilityCSV.Header() + "\n" +
			"0,Baseline,1.234567e-04,9.876543e-05,0,0,0,0,0,0,0,0,0,0,0.000000e+00,1.2345,false\n",
		reliabilityCSV.Header() + "\n" +
			"4,FlexLevel,1.0e-3,1.0e-4,17,3,2,5,9,0,1,25,40,2,3.1e-12,2.5000,true\n",
		reliabilityCSV.Header() + "\n" +
			"1,LDPC-in-SSD,1e-3,1e-4,-1,0,0,0,0,0,0,0,0,0,0,1.0,false\n",
		"scale,system\n1,Baseline\n",
		"",
	}
	lifetimeSeeds = []string{
		lifetimeCSV.Header() + "\n" +
			"NUNMA 3,threshold,1,120,6000.50,5,0,3072,0,0.000000e+00,0,1024,1100,1.0742,16777216,false\n" +
			"baseline-mlc,scrub,2,240,6001.25,4,1,3072,7,1.780000e-08,3072,2048,5300,2.5879,33554432,true\n",
		lifetimeCSV.Header() + "\n" +
			"baseline-mlc,none,0,120,6000,5,0,0,0,0,0,0,0,0,0,true\n",
		lifetimeCSV.Header() + "\n" +
			"baseline-mlc,scrub,2,-1,6000,5,0,0,0,0,0,0,0,0,0,true\n",
		lifetimeCSV.Header() + "\n" +
			"x,none,1,NaN,+Inf,1,1,1,1,NaN,1,1,1,+Inf,1,1\n",
	}
)

// FuzzReadArtifactCSV drives every artifact table's reader with the
// same arbitrary input. Invariants: no reader panics, and writing is
// idempotent over parsing — for any input a table accepts,
// write(parse(in)) is a fixed point of parse-then-write. This pins each
// reader and writer to the same canonical format, which the golden
// round-trip tests and the CI determinism check both rely on.
func FuzzReadArtifactCSV(f *testing.F) {
	for _, h := range []string{
		fig5CSV.Header(), table4CSV.Header(), table5CSV.Header(), fig6aCSV.Header(),
		fig7CSV.Header(), crashCSV.Header(), throughputCSV.Header(), scenarioCSV.Header(),
	} {
		f.Add(h + "\n")
	}
	for _, seeds := range [][]string{adaptiveSeeds, reliabilitySeeds, lifetimeSeeds} {
		for _, s := range seeds {
			f.Add(s)
		}
	}
	f.Fuzz(fuzzArtifactTables)
}

// FuzzReadAdaptiveCSV and FuzzReadReliabilityCSV replay the seed
// corpora of the two fuzzers FuzzReadArtifactCSV replaced, through the
// same every-table check.
func FuzzReadAdaptiveCSV(f *testing.F) {
	for _, s := range adaptiveSeeds {
		f.Add(s)
	}
	f.Fuzz(fuzzArtifactTables)
}

func FuzzReadReliabilityCSV(f *testing.F) {
	for _, s := range reliabilitySeeds {
		f.Add(s)
	}
	f.Fuzz(fuzzArtifactTables)
}

// fuzzArtifactTables runs one input through every artifact table.
func fuzzArtifactTables(t *testing.T, data string) {
	checkFixedPoint(t, fig5CSV, data)
	checkFixedPoint(t, table4CSV, data)
	checkFixedPoint(t, table5CSV, data)
	checkFixedPoint(t, fig6aCSV, data)
	checkFixedPoint(t, fig7CSV, data)
	checkFixedPoint(t, reliabilityCSV, data)
	checkFixedPoint(t, crashCSV, data)
	checkFixedPoint(t, throughputCSV, data)
	checkFixedPoint(t, scenarioCSV, data)
	checkFixedPoint(t, adaptiveCSV, data)
	checkFixedPoint(t, lifetimeCSV, data)
}

// checkFixedPoint parses data with tb and, if tb accepts it, checks that
// write∘parse is idempotent.
func checkFixedPoint[R any](t *testing.T, tb csvtab.Table[R], data string) {
	t.Helper()
	rows, err := tb.Read(strings.NewReader(data), nil)
	if err != nil {
		return
	}
	var first bytes.Buffer
	if err := tb.Write(&first, rows); err != nil {
		t.Fatalf("%s: write of accepted input: %v", tb.Name, err)
	}
	again, err := tb.Read(bytes.NewReader(first.Bytes()), nil)
	if err != nil {
		t.Fatalf("%s: reparse of written output: %v\noutput: %q", tb.Name, err, first.String())
	}
	var second bytes.Buffer
	if err := tb.Write(&second, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("%s: write∘parse is not idempotent:\nfirst:  %q\nsecond: %q",
			tb.Name, first.String(), second.String())
	}
}
