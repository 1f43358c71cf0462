package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func mkReport(benches ...Benchmark) *Report {
	return &Report{Benchmarks: benches}
}

func findRow(t *testing.T, rows []DiffRow, key string) DiffRow {
	t.Helper()
	for _, r := range rows {
		if r.Key == key {
			return r
		}
	}
	t.Fatalf("row %q not found in %+v", key, rows)
	return DiffRow{}
}

func TestDiffGatesNsPerOp(t *testing.T) {
	old := mkReport(Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 100})
	cur := mkReport(Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 120})
	rows := diffReports(old, cur, 0.15, nil)
	if r := findRow(t, rows, "p BenchmarkA"); !r.Regressed {
		t.Errorf("+20%% ns/op at 15%% tolerance should fail: %+v", r)
	}
	rows = diffReports(old, cur, 0.25, nil)
	if r := findRow(t, rows, "p BenchmarkA"); r.Regressed {
		t.Errorf("+20%% ns/op at 25%% tolerance should pass: %+v", r)
	}
}

func TestDiffImprovementPasses(t *testing.T) {
	old := mkReport(Benchmark{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 40})
	cur := mkReport(Benchmark{Name: "BenchmarkA", NsPerOp: 50, AllocsPerOp: 2})
	for _, r := range diffReports(old, cur, 0.15, nil) {
		if r.Regressed {
			t.Errorf("improvement flagged as regression: %+v", r)
		}
	}
}

func TestDiffGatesAllocs(t *testing.T) {
	old := mkReport(Benchmark{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 10})
	cur := mkReport(Benchmark{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 20})
	if r := findRow(t, diffReports(old, cur, 0.15, nil), " BenchmarkA"); !r.Regressed {
		t.Errorf("doubled allocs should fail: %+v", r)
	}
	// Zero-alloc baseline: one stray alloc sits inside the absolute
	// slack, not an infinite relative regression.
	old = mkReport(Benchmark{Name: "BenchmarkZ", NsPerOp: 100, AllocsPerOp: 0})
	cur = mkReport(Benchmark{Name: "BenchmarkZ", NsPerOp: 100, AllocsPerOp: 0.4})
	if r := findRow(t, diffReports(old, cur, 0.15, nil), " BenchmarkZ"); r.Regressed {
		t.Errorf("sub-slack alloc jitter should pass: %+v", r)
	}
}

func TestDiffMissingAndNew(t *testing.T) {
	old := mkReport(Benchmark{Name: "BenchmarkGone", NsPerOp: 1})
	cur := mkReport(Benchmark{Name: "BenchmarkFresh", NsPerOp: 1})
	rows := diffReports(old, cur, 0.15, nil)
	if r := findRow(t, rows, " BenchmarkGone"); !r.OnlyInOld || r.Regressed {
		t.Errorf("gone bench: %+v", r)
	}
	if r := findRow(t, rows, " BenchmarkFresh"); !r.OnlyInNew || r.Regressed {
		t.Errorf("fresh bench: %+v", r)
	}
	var sb strings.Builder
	if n := printDiff(&sb, rows, 0.15); n != 0 {
		t.Errorf("missing/new rows should not count as regressions, got %d\n%s", n, sb.String())
	}
	if !strings.Contains(sb.String(), "ADDED") || !strings.Contains(sb.String(), "MISSING") {
		t.Errorf("diff output should label added and missing rows:\n%s", sb.String())
	}
}

// TestDiffMainAddedBenchmark drives the real entry point end to end:
// a new run that contains benchmarks absent from the baseline must
// exit 0 (added, not regressed), while a genuine regression on a
// shared benchmark must still exit 1.
func TestDiffMainAddedBenchmark(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *Report) string {
		path := filepath.Join(dir, name)
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", mkReport(
		Benchmark{Name: "BenchmarkShared", Package: "p", NsPerOp: 100},
	))
	newPath := write("new.json", mkReport(
		Benchmark{Name: "BenchmarkShared", Package: "p", NsPerOp: 100},
		Benchmark{Name: "BenchmarkBrandNew", Package: "p", NsPerOp: 9999},
	))
	if code := diffMain([]string{oldPath, newPath}); code != 0 {
		t.Errorf("added benchmark should not fail the gate, exit %d", code)
	}
	badPath := write("bad.json", mkReport(
		Benchmark{Name: "BenchmarkShared", Package: "p", NsPerOp: 200},
		Benchmark{Name: "BenchmarkBrandNew", Package: "p", NsPerOp: 9999},
	))
	if code := diffMain([]string{oldPath, badPath}); code != 1 {
		t.Errorf("regressed shared benchmark should exit 1, got %d", code)
	}
}

func TestDiffBenchFilter(t *testing.T) {
	old := mkReport(
		Benchmark{Name: "BenchmarkHot", NsPerOp: 100},
		Benchmark{Name: "BenchmarkCold", NsPerOp: 100},
	)
	cur := mkReport(
		Benchmark{Name: "BenchmarkHot", NsPerOp: 100},
		Benchmark{Name: "BenchmarkCold", NsPerOp: 1000},
	)
	rows := diffReports(old, cur, 0.15, regexp.MustCompile("Hot"))
	if len(rows) != 1 || rows[0].Key != " BenchmarkHot" || rows[0].Regressed {
		t.Errorf("filter should gate only BenchmarkHot: %+v", rows)
	}
}

// TestDiffFilteredMissingFails: a baseline benchmark the -bench filter
// gates but the new run lacks fails the gate, so deleting or renaming a
// gated benchmark cannot pass unnoticed; one the filter does not gate
// stays out of the table.
func TestDiffFilteredMissingFails(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *Report) string {
		path := filepath.Join(dir, name)
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", mkReport(
		Benchmark{Name: "BenchmarkHot", Package: "p", NsPerOp: 100},
		Benchmark{Name: "BenchmarkHotGone", Package: "p", NsPerOp: 100},
		Benchmark{Name: "BenchmarkColdGone", Package: "p", NsPerOp: 100},
	))
	newPath := write("new.json", mkReport(
		Benchmark{Name: "BenchmarkHot", Package: "p", NsPerOp: 100},
	))
	old, err := loadReport(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := loadReport(newPath)
	if err != nil {
		t.Fatal(err)
	}
	rows := diffReports(old, cur, 0.15, regexp.MustCompile("Hot"))
	if r := findRow(t, rows, "p BenchmarkHotGone"); !r.OnlyInOld || !r.Regressed {
		t.Errorf("gated missing bench should regress: %+v", r)
	}
	var sb strings.Builder
	if n := printDiff(&sb, rows, 0.15); n != 1 || !strings.Contains(sb.String(), "FAIL     p BenchmarkHotGone") {
		t.Errorf("want one FAIL row for the gated missing bench, got %d\n%s", n, sb.String())
	}
	if code := diffMain([]string{oldPath, newPath, "-bench", "Hot"}); code != 1 {
		t.Errorf("gated missing benchmark should exit 1, got %d", code)
	}
	if code := diffMain([]string{oldPath, newPath, "-bench", "^BenchmarkHot$"}); code != 0 {
		t.Errorf("missing benchmarks outside the filter should not fail, exit %d", code)
	}
	if code := diffMain([]string{oldPath, newPath}); code != 0 {
		t.Errorf("without -bench a missing benchmark is informational, exit %d", code)
	}
}

// TestDiffMainRejectsBadTol: a NaN tolerance would pass every row, and
// an infinite or negative one gates nothing meaningful; each exits 2.
func TestDiffMainRejectsBadTol(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.json")
	data, err := json.Marshal(mkReport(Benchmark{Name: "BenchmarkA", Package: "p", NsPerOp: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tol  string
		want int
	}{
		{"NaN", 2},
		{"+Inf", 2},
		{"-0.1", 2},
		{"0", 0},
		{"0.15", 0},
	} {
		if code := diffMain([]string{path, path, "-tol", c.tol}); code != c.want {
			t.Errorf("-tol %s: exit %d, want %d", c.tol, code, c.want)
		}
	}
}
