package main

import (
	"math"
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
