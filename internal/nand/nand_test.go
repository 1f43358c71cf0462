package nand

import (
	"math/rand"
	"testing"

	"flexlevel/internal/nunma"
)

func TestGrayMapping(t *testing.T) {
	// Paper §2.1: 11, 10, 00, 01 map to levels 0..3.
	cases := []struct {
		msb, lsb uint8
		level    uint8
	}{
		{1, 1, 0}, {1, 0, 1}, {0, 0, 2}, {0, 1, 3},
	}
	for _, c := range cases {
		if got := GrayEncode(c.msb, c.lsb); got != c.level {
			t.Errorf("GrayEncode(%d%d) = %d, want %d", c.msb, c.lsb, got, c.level)
		}
		m, l := GrayDecode(c.level)
		if m != c.msb || l != c.lsb {
			t.Errorf("GrayDecode(%d) = %d%d, want %d%d", c.level, m, l, c.msb, c.lsb)
		}
	}
}

func TestGrayAdjacency(t *testing.T) {
	for lvl := uint8(0); lvl < 3; lvl++ {
		if !GrayAdjacentOneBit(lvl, lvl+1) {
			t.Errorf("levels %d and %d should differ in one bit", lvl, lvl+1)
		}
	}
	// Non-adjacent levels 0 and 2 differ in both bits.
	if GrayAdjacentOneBit(0, 2) {
		t.Error("levels 0 and 2 should differ in two bits")
	}
}

func TestGrayDecodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GrayDecode(4) should panic")
		}
	}()
	GrayDecode(4)
}

func newTestArray(t *testing.T, rows, cols int) *Array {
	t.Helper()
	cfg, err := nunma.ByName("NUNMA 3")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArray(rows, cols, nunma.BaselineMLC(), cfg.Spec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewArrayValidation(t *testing.T) {
	cfg, _ := nunma.ByName("NUNMA 1")
	if _, err := NewArray(0, 8, nunma.BaselineMLC(), cfg.Spec(), 1); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := NewArray(2, 6, nunma.BaselineMLC(), cfg.Spec(), 1); err == nil {
		t.Error("cols not multiple of 4 accepted")
	}
	bad := nunma.BaselineMLC()
	bad.ReadRefs = nil
	if _, err := NewArray(2, 8, bad, cfg.Spec(), 1); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestProgramReadNormalRoundTrip(t *testing.T) {
	a := newTestArray(t, 4, 32)
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < a.Rows; r++ {
		levels := make([]uint8, a.Cols)
		for c := range levels {
			levels[c] = uint8(rng.Intn(4))
		}
		if err := a.ProgramRowNormal(r, levels); err != nil {
			t.Fatal(err)
		}
		got, err := a.ReadRowLevels(r)
		if err != nil {
			t.Fatal(err)
		}
		errors := 0
		for c := range levels {
			if got[c] != levels[c] {
				errors++
			}
		}
		// Fresh program, no aging: essentially error-free.
		if errors > 1 {
			t.Errorf("row %d: %d/%d cells misread right after programming", r, errors, a.Cols)
		}
	}
}

func TestProgramRowNormalErrors(t *testing.T) {
	a := newTestArray(t, 2, 8)
	if err := a.ProgramRowNormal(5, make([]uint8, 8)); err == nil {
		t.Error("out-of-range row accepted")
	}
	if err := a.ProgramRowNormal(0, make([]uint8, 3)); err == nil {
		t.Error("wrong level count accepted")
	}
	if err := a.ProgramRowNormal(0, []uint8{4, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("out-of-range level accepted")
	}
	if err := a.SetRowState(0, Reduced); err != nil {
		t.Fatal(err)
	}
	if err := a.ProgramRowNormal(0, make([]uint8, 8)); err == nil {
		t.Error("normal program on reduced row accepted")
	}
}

func TestProgramReadReducedRoundTrip(t *testing.T) {
	a := newTestArray(t, 4, 32)
	rng := rand.New(rand.NewSource(2))
	for r := 0; r < a.Rows; r++ {
		if err := a.SetRowState(r, Reduced); err != nil {
			t.Fatal(err)
		}
		values := make([]uint8, a.Cols/2)
		for i := range values {
			values[i] = uint8(rng.Intn(8))
		}
		if err := a.ProgramRowReduced(r, values); err != nil {
			t.Fatal(err)
		}
		got, err := a.ReadRowReduced(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(values) {
			t.Fatalf("read %d values, want %d", len(got), len(values))
		}
		errors := 0
		for i := range values {
			if got[i] != values[i] {
				errors++
			}
		}
		if errors > 1 {
			t.Errorf("row %d: %d/%d pairs misread right after programming", r, errors, len(values))
		}
	}
}

func TestProgramRowReducedErrors(t *testing.T) {
	a := newTestArray(t, 2, 8)
	if err := a.ProgramRowReduced(0, make([]uint8, 4)); err == nil {
		t.Error("reduced program on normal row accepted")
	}
	if err := a.SetRowState(0, Reduced); err != nil {
		t.Fatal(err)
	}
	if err := a.ProgramRowReduced(0, make([]uint8, 3)); err == nil {
		t.Error("wrong value count accepted")
	}
	if err := a.ProgramRowReduced(0, []uint8{8, 0, 0, 0}); err == nil {
		t.Error("out-of-range value accepted")
	}
	if _, err := a.ReadRowReduced(1); err == nil {
		t.Error("reduced read on normal row accepted")
	}
}

func TestStateSwitchRequiresErase(t *testing.T) {
	a := newTestArray(t, 2, 8)
	if err := a.ProgramRowNormal(0, []uint8{1, 2, 3, 0, 1, 2, 3, 0}); err != nil {
		t.Fatal(err)
	}
	if err := a.SetRowState(0, Reduced); err == nil {
		t.Error("state switch on programmed row accepted")
	}
	a.Erase()
	if err := a.SetRowState(0, Reduced); err != nil {
		t.Errorf("state switch after erase rejected: %v", err)
	}
	if s, err := a.RowState(0); err != nil || s != Reduced {
		t.Errorf("row state = %v, %v; want reduced", s, err)
	}
	if a.peCycles != 1 {
		t.Errorf("PECycles = %d, want 1", a.peCycles)
	}
}

func TestAgingCausesRetentionErrors(t *testing.T) {
	// At heavy wear and a month of storage the baseline MLC must show
	// misreads, and errors must grow with time.
	countErrors := func(hours float64) int {
		a := newTestArray(t, 8, 64)
		rng := rand.New(rand.NewSource(3))
		a.SetPECycles(6000)
		stored := make([][]uint8, a.Rows)
		for r := 0; r < a.Rows; r++ {
			levels := make([]uint8, a.Cols)
			for c := range levels {
				levels[c] = uint8(rng.Intn(4))
			}
			stored[r] = levels
			if err := a.ProgramRowNormal(r, levels); err != nil {
				t.Fatal(err)
			}
		}
		a.Age(hours)
		errors := 0
		for r := 0; r < a.Rows; r++ {
			got, err := a.ReadRowLevels(r)
			if err != nil {
				t.Fatal(err)
			}
			for c := range got {
				if got[c] != stored[r][c] {
					errors++
				}
			}
		}
		return errors
	}
	short := countErrors(24)
	long := countErrors(72 * 30)
	if long == 0 {
		t.Error("a month at P/E 6000 should cause misreads")
	}
	if long < short {
		t.Errorf("errors should grow with time: %d at 1d vs %d at 1mo", short, long)
	}
}

func TestReducedStateMoreRobustThanNormal(t *testing.T) {
	// The device-level claim of LevelAdjust: under identical wear and
	// retention stress, reduced-state rows misread less than normal
	// rows.
	const rows, cols = 8, 64
	runState := func(reduced bool) int {
		a := newTestArray(t, rows, cols)
		rng := rand.New(rand.NewSource(4))
		a.SetPECycles(6000)
		errors := 0
		for r := 0; r < rows; r++ {
			if reduced {
				if err := a.SetRowState(r, Reduced); err != nil {
					t.Fatal(err)
				}
				values := make([]uint8, cols/2)
				for i := range values {
					values[i] = uint8(rng.Intn(8))
				}
				if err := a.ProgramRowReduced(r, values); err != nil {
					t.Fatal(err)
				}
				a.Age(720)
				got, err := a.ReadRowReduced(r)
				if err != nil {
					t.Fatal(err)
				}
				for i := range values {
					if got[i] != values[i] {
						errors++
					}
				}
			} else {
				levels := make([]uint8, cols)
				for i := range levels {
					levels[i] = uint8(rng.Intn(4))
				}
				if err := a.ProgramRowNormal(r, levels); err != nil {
					t.Fatal(err)
				}
				a.Age(720)
				got, err := a.ReadRowLevels(r)
				if err != nil {
					t.Fatal(err)
				}
				for i := range levels {
					if got[i] != levels[i] {
						errors++
					}
				}
			}
		}
		return errors
	}
	normalErrs := runState(false)
	reducedErrs := runState(true)
	if reducedErrs > normalErrs {
		t.Errorf("reduced state %d errors vs normal %d: LevelAdjust should win",
			reducedErrs, normalErrs)
	}
}

func TestPairColumnsStructure(t *testing.T) {
	for _, cols := range []int{4, 8, 16, 2048} {
		pairs := PairColumns(cols)
		if len(pairs) != cols/2 {
			t.Fatalf("%d pairs for %d cols, want %d", len(pairs), cols, cols/2)
		}
		evens, odds := 0, 0
		seen := make([]int, cols)
		for _, p := range pairs {
			if p[0]%2 != p[1]%2 {
				t.Errorf("cols %d: pair %v mixes even and odd bitlines", cols, p)
			}
			if p[1]-p[0] != 2 {
				t.Errorf("cols %d: pair %v not adjacent same-parity bitlines", cols, p)
			}
			if p[0]%2 == 0 {
				evens++
			} else {
				odds++
			}
			seen[p[0]]++
			seen[p[1]]++
		}
		if evens != cols/4 || odds != cols/4 {
			t.Errorf("cols %d: pairs split %d even / %d odd, want %d/%d", cols, evens, odds, cols/4, cols/4)
		}
		for c, n := range seen {
			if n != 1 {
				t.Errorf("cols %d: column %d in %d pairs, want 1", cols, c, n)
			}
		}
	}
}

func TestRowOutOfRange(t *testing.T) {
	a := newTestArray(t, 1, 8)
	calls := map[string]func(r int) error{
		"RowState": func(r int) error {
			_, err := a.RowState(r)
			return err
		},
		"SetRowState": func(r int) error { return a.SetRowState(r, Reduced) },
		"ProgramRowNormal": func(r int) error {
			return a.ProgramRowNormal(r, make([]uint8, 8))
		},
		"ProgramRowReduced": func(r int) error {
			return a.ProgramRowReduced(r, make([]uint8, 4))
		},
		"ReadRowLevels": func(r int) error {
			_, err := a.ReadRowLevels(r)
			return err
		},
		"ReadRowReduced": func(r int) error {
			_, err := a.ReadRowReduced(r)
			return err
		},
	}
	for name, call := range calls {
		for _, r := range []int{-1, a.Rows} {
			if err := call(r); err == nil {
				t.Errorf("%s(%d) on a %d-row array accepted", name, r, a.Rows)
			}
		}
	}
}

func TestC2CDisturbObservable(t *testing.T) {
	// Programming a neighbour must raise an already-programmed victim's
	// Vth.
	a := newTestArray(t, 2, 8)
	if err := a.ProgramRowNormal(0, []uint8{1, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	before := a.vth[a.idx(0, 0)]
	if err := a.ProgramRowNormal(1, []uint8{3, 3, 3, 3, 3, 3, 3, 3}); err != nil {
		t.Fatal(err)
	}
	after := a.vth[a.idx(0, 0)]
	if after <= before {
		t.Errorf("victim Vth %g -> %g: programming neighbours should raise it", before, after)
	}
}
