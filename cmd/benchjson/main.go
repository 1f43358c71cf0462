// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON document, so CI can archive one BENCH_<date>.json
// artifact per run and benchmark trajectories can be tracked across
// commits without parsing free-form text.
//
//	go test -run '^$' -bench . ./... | benchjson > BENCH_$(date +%F).json
//
// Standard metrics (ns/op, B/op, allocs/op, MB/s) get their own fields;
// anything else — such as the custom %reduction metrics the figure
// benches report — lands in the metrics map keyed by its unit.
//
// Diff mode compares two such documents and fails on regressions — the
// CI benchmark-regression gate:
//
//	benchjson -diff BENCH_old.json BENCH_new.json -tol 0.15 [-bench regex]
//
// CI's baseline is the newest committed BENCH_<date>.json, picked with
// `git ls-files 'BENCH_*.json' | sort | tail -n1`.
//
// Benchmarks are matched by (package, name); ns/op and allocs/op are
// gated at the tolerance (default 15%). Exit status 1 means at least
// one regression; benchmarks present on only one side are reported but
// never fail the gate.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one result line of the -bench output.
type Benchmark struct {
	Name        string             `json:"name"`
	Package     string             `json:"package,omitempty"`
	Procs       int                `json:"procs,omitempty"` // the -N suffix (GOMAXPROCS)
	Runs        int64              `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	MBPerSec    float64            `json:"mb_per_sec,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full document.
type Report struct {
	Date       string      `json:"date"`
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-diff" {
		os.Exit(diffMain(os.Args[2:]))
	}
	report := Report{Date: time.Now().UTC().Format(time.RFC3339)}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			report.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			report.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBench(line); ok {
				b.Package = pkg
				report.Benchmarks = append(report.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseBench decodes one "BenchmarkName-8  100  12345 ns/op  ..." line:
// a name, an iteration count, then (value, unit) pairs.
func parseBench(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0]}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], procs
		}
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Runs = runs
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		case "MB/s":
			b.MBPerSec = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}
