package main

// Diff mode: the benchmark-regression gate. Compares two benchjson
// documents benchmark-by-benchmark and exits non-zero when a gated
// metric regressed past the tolerance.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
)

// allocSlack absorbs the integer jitter of tiny allocs/op counts: a
// baseline of 0 allocs/op would otherwise make any nonzero value an
// infinite regression.
const allocSlack = 0.5

// DiffRow is the comparison of one benchmark across the two reports.
type DiffRow struct {
	Key       string // package + " " + name
	OldNs     float64
	NewNs     float64
	OldAllocs float64
	NewAllocs float64
	Regressed bool
	Reason    string
	OnlyInOld bool
	OnlyInNew bool
}

// diffReports compares old and new, gating ns/op and allocs/op at tol
// (fractional, e.g. 0.15 = +15%). filter, when non-nil, restricts which
// benchmarks are gated (others are skipped entirely), and a gated
// baseline benchmark missing from the new run is a regression: deleting
// or renaming it must not pass the gate silently. Without a filter a
// missing benchmark is only reported.
func diffReports(old, new *Report, tol float64, filter *regexp.Regexp) []DiffRow {
	type key struct{ pkg, name string }
	index := func(r *Report) map[key]Benchmark {
		m := make(map[key]Benchmark, len(r.Benchmarks))
		for _, b := range r.Benchmarks {
			m[key{b.Package, b.Name}] = b
		}
		return m
	}
	oldIdx, newIdx := index(old), index(new)
	keys := make([]key, 0, len(oldIdx)+len(newIdx))
	seen := make(map[key]bool)
	for k := range oldIdx {
		keys = append(keys, k)
		seen[k] = true
	}
	for k := range newIdx {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pkg != keys[j].pkg {
			return keys[i].pkg < keys[j].pkg
		}
		return keys[i].name < keys[j].name
	})

	var rows []DiffRow
	for _, k := range keys {
		if filter != nil && !filter.MatchString(k.name) {
			continue
		}
		row := DiffRow{Key: k.pkg + " " + k.name}
		ob, inOld := oldIdx[k]
		nb, inNew := newIdx[k]
		switch {
		case !inNew:
			row.OnlyInOld = true
			if filter != nil {
				row.Regressed = true
				row.Reason = "in baseline only, missing from the new run"
			}
		case !inOld:
			row.OnlyInNew = true
		default:
			row.OldNs, row.NewNs = ob.NsPerOp, nb.NsPerOp
			row.OldAllocs, row.NewAllocs = ob.AllocsPerOp, nb.AllocsPerOp
			if ob.NsPerOp > 0 && nb.NsPerOp > ob.NsPerOp*(1+tol) {
				row.Regressed = true
				row.Reason = fmt.Sprintf("ns/op %+.1f%%", 100*(nb.NsPerOp/ob.NsPerOp-1))
			}
			if nb.AllocsPerOp > ob.AllocsPerOp*(1+tol)+allocSlack {
				row.Regressed = true
				if row.Reason != "" {
					row.Reason += ", "
				}
				row.Reason += fmt.Sprintf("allocs/op %.1f -> %.1f", ob.AllocsPerOp, nb.AllocsPerOp)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// printDiff renders the comparison table; returns the regression count.
func printDiff(w io.Writer, rows []DiffRow, tol float64) int {
	regressions := 0
	fmt.Fprintf(w, "benchmark regression gate (tolerance %+.0f%%)\n", 100*tol)
	for _, r := range rows {
		switch {
		case r.Regressed:
			regressions++
			fmt.Fprintf(w, "  FAIL     %s: %s\n", r.Key, r.Reason)
		case r.OnlyInOld:
			fmt.Fprintf(w, "  MISSING  %s (in baseline only)\n", r.Key)
		case r.OnlyInNew:
			// A benchmark with no baseline entry is an addition, not a
			// regression: report it and let the run pass, so landing new
			// benchmarks never requires refreshing the baseline first.
			fmt.Fprintf(w, "  ADDED    %s (no baseline)\n", r.Key)
		default:
			delta := 0.0
			if r.OldNs > 0 {
				delta = 100 * (r.NewNs/r.OldNs - 1)
			}
			fmt.Fprintf(w, "  ok       %s: ns/op %+.1f%% (%.0f -> %.0f), allocs/op %.0f -> %.0f\n",
				r.Key, delta, r.OldNs, r.NewNs, r.OldAllocs, r.NewAllocs)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "  %d regression(s) past tolerance\n", regressions)
	} else {
		fmt.Fprintln(w, "  no regressions")
	}
	return regressions
}

// loadReport reads one benchjson document.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// diffMain parses `-diff old.json new.json [-tol f] [-bench regex]` and
// returns the process exit code.
func diffMain(args []string) int {
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson -diff old.json new.json [-tol 0.15] [-bench regex]")
		return 2
	}
	oldPath, newPath := args[0], args[1]
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	tol := fs.Float64("tol", 0.15, "fractional regression tolerance (0.15 = +15%)")
	bench := fs.String("bench", "", "regexp restricting which benchmarks are gated")
	if err := fs.Parse(args[2:]); err != nil {
		return 2
	}
	// A NaN tolerance would pass every row (no comparison with NaN is
	// true), and a negative or infinite one gates nothing meaningful.
	if math.IsNaN(*tol) || math.IsInf(*tol, 0) || *tol < 0 {
		fmt.Fprintf(os.Stderr, "benchjson: -tol %v: want a finite fraction >= 0\n", *tol)
		return 2
	}
	var filter *regexp.Regexp
	if *bench != "" {
		re, err := regexp.Compile(*bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: -bench:", err)
			return 2
		}
		filter = re
	}
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	rows := diffReports(oldRep, newRep, *tol, filter)
	if printDiff(os.Stdout, rows, *tol) > 0 {
		return 1
	}
	return 0
}
