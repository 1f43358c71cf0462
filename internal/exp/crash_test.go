package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestCrashRecoverySweep(t *testing.T) {
	cfg := SimConfig{Requests: 1500, Seed: 1, PE: 6000, Parallel: 1}
	points := 4
	if testing.Short() {
		points = 2
	}
	data, err := CrashRecovery(cfg, points)
	if err != nil {
		t.Fatal(err)
	}
	s := data.Summary
	if s.CrashPoints == 0 || len(data.Rows) != s.CrashPoints {
		t.Fatalf("crash points: %d rows vs %d summary", len(data.Rows), s.CrashPoints)
	}
	// The core contract: zero acked-write loss, OOB-consistent mapping,
	// idempotent recovery, at every crash point.
	if s.DataLoss != 0 {
		t.Errorf("data loss %d, want 0", s.DataLoss)
	}
	if s.OOBMismatches != 0 {
		t.Errorf("OOB mismatches %d, want 0", s.OOBMismatches)
	}
	if !s.AllIdempotent {
		t.Error("recovery not idempotent at some crash point")
	}
	for _, r := range data.Rows {
		if r.RecoveryReads <= 0 {
			t.Errorf("crash %d: recovery did no reads", r.CrashPoint)
		}
		if r.RecoveryTimeSec <= 0 {
			t.Errorf("crash %d: no recovery time charged", r.CrashPoint)
		}
	}
	if s.MaxRecoveryReads < int64(s.MeanRecoveryReads) {
		t.Errorf("max recovery reads %d below mean %.1f", s.MaxRecoveryReads, s.MeanRecoveryReads)
	}

	// Determinism across worker counts: the whole sweep is a pure
	// function of (seed, requests, points).
	cfg.Parallel = 4
	again, err := CrashRecovery(cfg, points)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(data.Rows, again.Rows) {
		t.Fatal("crash sweep rows differ between -parallel 1 and 4")
	}
	if data.Summary != again.Summary {
		t.Fatal("crash summary differs between -parallel 1 and 4")
	}

	var csv bytes.Buffer
	if err := crashCSV.Write(&csv, data.Rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != len(data.Rows)+1 {
		t.Errorf("CSV has %d lines, want %d", lines, len(data.Rows)+1)
	}
	var js bytes.Buffer
	if err := data.Summary.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"crash_points"`, `"data_loss": 0`, `"all_idempotent": true`, `"mean_recovery_reads"`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("summary JSON missing %s:\n%s", want, js.String())
		}
	}
	var txt bytes.Buffer
	PrintCrash(&txt, data)
	if !strings.Contains(txt.String(), "PASS") {
		t.Errorf("rendered sweep not passing:\n%s", txt.String())
	}
}
