package nand

import (
	"fmt"
	"math/rand"

	"flexlevel/internal/noise"
	"flexlevel/internal/reducecode"
)

// CellState is the LevelAdjust state of a wordline's cells.
type CellState int

const (
	// Normal is the regular 4-level MLC state.
	Normal CellState = iota
	// Reduced is the 3-level LevelAdjust state.
	Reduced
)

func (s CellState) String() string {
	switch s {
	case Normal:
		return "normal"
	case Reduced:
		return "reduced"
	default:
		return fmt.Sprintf("CellState(%d)", int(s))
	}
}

// Array is a block of NAND cells organized as wordlines × bitlines with
// the even/odd bitline structure of paper Fig. 1(a). Each wordline can
// independently be in the normal or reduced state (its spec decides the
// Vth landscape). Cells hold real threshold voltages; programming one
// cell disturbs its already-programmed neighbours per the C2C model.
type Array struct {
	Rows, Cols int

	NormalSpec  *noise.Spec
	ReducedSpec *noise.Spec
	C2C         noise.C2CModel
	Retention   noise.RetentionModel

	// ReadNoiseSigma is per-sense Gaussian noise (random telegraph noise
	// and sense-amplifier offset) applied by SenseVth and the read
	// methods; each sense draws a fresh sample.
	ReadNoiseSigma float64

	state     []CellState // per row
	vth       []float64   // Rows*Cols
	programed []bool
	x0        []float64 // per-cell erased reference, sampled at erase
	peCycles  int
	rng       *rand.Rand
}

// DefaultReadNoiseSigma is the per-sense noise spread in volts.
const DefaultReadNoiseSigma = 0.02

// NewArray builds an erased array. cols must be even (even/odd bitline
// pairs) and, for reduced-state use, a multiple of 4 so even cells pair
// up.
func NewArray(rows, cols int, normal, reduced *noise.Spec, seed int64) (*Array, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("nand: non-positive array dims %dx%d", rows, cols)
	}
	if cols%4 != 0 {
		return nil, fmt.Errorf("nand: cols %d must be a multiple of 4", cols)
	}
	if err := normal.Validate(); err != nil {
		return nil, fmt.Errorf("nand: normal spec: %w", err)
	}
	if err := reduced.Validate(); err != nil {
		return nil, fmt.Errorf("nand: reduced spec: %w", err)
	}
	a := &Array{
		Rows: rows, Cols: cols,
		NormalSpec:     normal,
		ReducedSpec:    reduced,
		C2C:            noise.DefaultC2C(),
		Retention:      noise.DefaultRetention(),
		ReadNoiseSigma: DefaultReadNoiseSigma,
		state:          make([]CellState, rows),
		vth:            make([]float64, rows*cols),
		programed:      make([]bool, rows*cols),
		x0:             make([]float64, rows*cols),
		rng:            rand.New(rand.NewSource(seed)),
	}
	a.eraseAll()
	return a, nil
}

func (a *Array) idx(r, c int) int { return r*a.Cols + c }

func (a *Array) eraseAll() {
	for i := range a.vth {
		a.x0[i] = a.Retention.X0.Sample(a.rng)
		a.vth[i] = a.x0[i]
		a.programed[i] = false
	}
}

// SetPECycles force-sets wear, letting experiments model pre-aged blocks.
func (a *Array) SetPECycles(n int) { a.peCycles = n }

// SetRowState sets the LevelAdjust state of a wordline. Only legal on an
// erased row (state switches happen at erase boundaries in the paper's
// design).
func (a *Array) SetRowState(r int, s CellState) error {
	if r < 0 || r >= a.Rows {
		return fmt.Errorf("nand: row %d out of range", r)
	}
	for c := 0; c < a.Cols; c++ {
		if a.programed[a.idx(r, c)] {
			return fmt.Errorf("nand: row %d has programmed cells; erase before state switch", r)
		}
	}
	a.state[r] = s
	return nil
}

// RowState returns the LevelAdjust state of a wordline.
func (a *Array) RowState(r int) (CellState, error) {
	if r < 0 || r >= a.Rows {
		return Normal, fmt.Errorf("nand: row %d out of range", r)
	}
	return a.state[r], nil
}

func (a *Array) spec(r int) *noise.Spec {
	if a.state[r] == Reduced {
		return a.ReducedSpec
	}
	return a.NormalSpec
}

// programCell ISPP-programs one cell to the target level and applies
// the residual coupling shift to already-programmed neighbours.
func (a *Array) programCell(r, c int, level uint8) {
	spec := a.spec(r)
	i := a.idx(r, c)
	before := a.vth[i]
	var after float64
	if level == 0 {
		after = before // stays erased
	} else {
		after = spec.Programmed(int(level)).Sample(a.rng)
		if after < before {
			after = before // ISPP cannot lower Vth
		}
	}
	a.vth[i] = after
	a.programed[i] = true
	a.disturbNeighbours(r, c, after-before)
}

// disturbNeighbours applies the residual coupling of a dv Vth rise at
// (r, c) to already-programmed neighbours: x (same row ±1 col), y
// (adjacent rows same col), xy (diagonals).
func (a *Array) disturbNeighbours(r, c int, dv float64) {
	if dv <= 0 {
		return
	}
	push := func(rr, cc int, gamma float64) {
		if rr < 0 || rr >= a.Rows || cc < 0 || cc >= a.Cols {
			return
		}
		j := a.idx(rr, cc)
		if !a.programed[j] {
			return
		}
		a.vth[j] += a.C2C.Residual * gamma * dv
	}
	push(r, c-1, a.C2C.GammaX)
	push(r, c+1, a.C2C.GammaX)
	push(r-1, c, a.C2C.GammaY)
	push(r+1, c, a.C2C.GammaY)
	push(r-1, c-1, a.C2C.GammaXY)
	push(r-1, c+1, a.C2C.GammaXY)
	push(r+1, c-1, a.C2C.GammaXY)
	push(r+1, c+1, a.C2C.GammaXY)
}

// ProgramRowNormal programs a normal-state wordline from per-cell MLC
// levels (len = Cols), even bitlines first then odd — the even/odd page
// group order of Fig. 1(a).
func (a *Array) ProgramRowNormal(r int, levels []uint8) error {
	if r < 0 || r >= a.Rows {
		return fmt.Errorf("nand: row %d out of range", r)
	}
	if a.state[r] != Normal {
		return fmt.Errorf("nand: row %d is in %v state", r, a.state[r])
	}
	if len(levels) != a.Cols {
		return fmt.Errorf("nand: %d levels for %d columns", len(levels), a.Cols)
	}
	for _, l := range levels {
		if l > 3 {
			return fmt.Errorf("nand: level %d out of MLC range", l)
		}
	}
	for phase := 0; phase < 2; phase++ { // 0 = even bitlines, 1 = odd
		for c := phase; c < a.Cols; c += 2 {
			a.programCell(r, c, levels[c])
		}
	}
	return nil
}

// ProgramRowReduced programs a reduced-state wordline from 3-bit values,
// one per cell pair. Pairs are adjacent even cells then adjacent odd
// cells (the ReduceCode bitline structure of Fig. 3). values must have
// length Cols/2. The two-step program algorithm of Table 2 is followed:
// step 1 programs the LSB levels on the selected bitlines, step 2 the
// MSB transitions on all bitlines.
func (a *Array) ProgramRowReduced(r int, values []uint8) error {
	if r < 0 || r >= a.Rows {
		return fmt.Errorf("nand: row %d out of range", r)
	}
	if a.state[r] != Reduced {
		return fmt.Errorf("nand: row %d is in %v state", r, a.state[r])
	}
	if len(values) != a.Cols/2 {
		return fmt.Errorf("nand: %d values for %d pairs", len(values), a.Cols/2)
	}
	for _, v := range values {
		if v > 7 {
			return fmt.Errorf("nand: value %d out of 3-bit range", v)
		}
	}
	pairs := PairColumns(a.Cols)
	// Step 1: program the two LSBs of every pair (lower page on even
	// bitlines, middle page on odd bitlines).
	for pi, pc := range pairs {
		plan := reducecode.PlanProgram(values[pi])
		a.programCell(r, pc[0], plan.AfterStep1.I)
		a.programCell(r, pc[1], plan.AfterStep1.II)
	}
	// Step 2: program the MSB transitions on all bitlines.
	for pi, pc := range pairs {
		plan := reducecode.PlanProgram(values[pi])
		if plan.AfterStep2.I != plan.AfterStep1.I {
			a.programCell(r, pc[0], plan.AfterStep2.I)
		}
		if plan.AfterStep2.II != plan.AfterStep1.II {
			a.programCell(r, pc[1], plan.AfterStep2.II)
		}
	}
	return nil
}

// PairColumns returns the column index pairs of the ReduceCode bitline
// structure of a wordline with cols cells: adjacent even columns pair
// up, then adjacent odd columns. Pair i stores the i-th 3-bit value.
func PairColumns(cols int) [][2]int {
	pairs := make([][2]int, 0, cols/2)
	for c := 0; c+2 < cols; c += 4 {
		pairs = append(pairs, [2]int{c, c + 2})
	}
	for c := 1; c+2 < cols; c += 4 {
		pairs = append(pairs, [2]int{c, c + 2})
	}
	return pairs
}

// Age applies retention charge loss to every programmed cell for the
// given storage time at the array's current P/E wear.
func (a *Array) Age(hours float64) {
	pe := a.peCycles
	if pe == 0 {
		pe = 1
	}
	for i := range a.vth {
		if !a.programed[i] {
			continue
		}
		a.vth[i] -= a.Retention.SampleShift(a.vth[i], a.x0[i], pe, hours, a.rng)
	}
}

// ReadRowLevels senses a wordline and returns the per-cell levels.
func (a *Array) ReadRowLevels(r int) ([]uint8, error) {
	if r < 0 || r >= a.Rows {
		return nil, fmt.Errorf("nand: row %d out of range", r)
	}
	spec := a.spec(r)
	out := make([]uint8, a.Cols)
	for c := 0; c < a.Cols; c++ {
		lvl, _ := spec.ReadLevelStrict(a.SenseVth(r, c))
		out[c] = uint8(lvl)
	}
	return out, nil
}

// ReadRowReduced senses a reduced wordline and decodes the ReduceCode
// pairs back to 3-bit values (DecodeClosest policy for the unused
// combination).
func (a *Array) ReadRowReduced(r int) ([]uint8, error) {
	if r < 0 || r >= a.Rows {
		return nil, fmt.Errorf("nand: row %d out of range", r)
	}
	if a.state[r] != Reduced {
		return nil, fmt.Errorf("nand: row %d is in %v state", r, a.state[r])
	}
	levels, err := a.ReadRowLevels(r)
	if err != nil {
		return nil, err
	}
	pairs := PairColumns(a.Cols)
	out := make([]uint8, len(pairs))
	for pi, pc := range pairs {
		out[pi] = reducecode.DecodeClosest(reducecode.LevelPair{I: levels[pc[0]], II: levels[pc[1]]})
	}
	return out, nil
}

// SenseVth returns one noisy sense of a cell's threshold voltage: the
// true Vth plus a fresh read-noise sample. Soft sensing re-reads with
// shifted references but the underlying analog sense carries the same
// noise, so one sample per read models the controller's view.
func (a *Array) SenseVth(r, c int) float64 {
	return a.vth[a.idx(r, c)] + a.ReadNoiseSigma*a.rng.NormFloat64()
}
