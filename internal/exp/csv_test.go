package exp

import (
	"strings"
	"testing"

	"flexlevel/internal/sensing"
)

func countLines(s string) int {
	return len(strings.Split(strings.TrimSpace(s), "\n"))
}

func TestWriteFig5CSV(t *testing.T) {
	rows, err := Fig5(SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := fig5CSV.Write(&sb, rows); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "scheme,c2c_ber\n") {
		t.Error("missing header")
	}
	if countLines(out) != 1+len(rows) {
		t.Errorf("%d lines, want %d", countLines(out), 1+len(rows))
	}
}

func TestWriteTable4CSV(t *testing.T) {
	cells, err := Table4(SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteTable4CSV(&sb, cells); err != nil {
		t.Fatal(err)
	}
	// Long form: one row per (cell, time column).
	want := 1 + len(cells)*len(RetentionTimes)
	if countLines(sb.String()) != want {
		t.Errorf("%d lines, want %d", countLines(sb.String()), want)
	}
	if !strings.Contains(sb.String(), "NUNMA 3") {
		t.Error("schemes missing")
	}
}

func TestWriteTable5CSV(t *testing.T) {
	rows, err := Table5(sensing.DefaultRule())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteTable5CSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	want := 1 + len(rows)*5
	if countLines(sb.String()) != want {
		t.Errorf("%d lines, want %d", countLines(sb.String()), want)
	}
}

func TestWriteFig6aAndFig7CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("system simulation")
	}
	data, err := Fig6a(SimConfig{Requests: 2000, Seed: 4, PE: 6000})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFig6aCSV(&sb, data); err != nil {
		t.Fatal(err)
	}
	want := 1 + len(data.Workloads)*len(data.Systems)
	if countLines(sb.String()) != want {
		t.Errorf("fig6a csv: %d lines, want %d", countLines(sb.String()), want)
	}
	var sb7 strings.Builder
	if err := fig7CSV.Write(&sb7, Fig7(data)); err != nil {
		t.Fatal(err)
	}
	if countLines(sb7.String()) != 1+len(data.Workloads) {
		t.Errorf("fig7 csv lines wrong")
	}
}
