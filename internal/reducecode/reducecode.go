// Package reducecode implements the ReduceCode technique of FlexLevel
// §4.1: packing 3 logical bits into a pair of reduced-state (3-level)
// cells using 8 of the 9 level combinations (paper Table 1), the
// dedicated even/odd bitline pairing, and the two-step program algorithm
// of paper Table 2.
//
// Like Gray code on regular MLC, ReduceCode guarantees that one level of
// distortion in either cell of a pair causes exactly one bit error for
// every distortion that lands on a valid combination.
package reducecode

import (
	"fmt"

	"flexlevel/internal/noise"
)

// NumLevels is the number of Vth levels of a reduced-state cell.
const NumLevels = 3

// BitsPerPair is the number of logical bits stored per cell pair.
const BitsPerPair = 3

// CapacityFactor is the storage density of reduced-state cells relative
// to normal MLC: 3 bits per pair instead of 4 (25% loss, §4.3).
const CapacityFactor = 0.75

// LevelPair is the Vth levels of the two cells of a ReduceCode pair.
type LevelPair struct {
	I, II uint8
}

// encodeTable is paper Table 1: 3-bit value -> (Vth I, Vth II).
var encodeTable = [8]LevelPair{
	0b000: {0, 0},
	0b001: {0, 1},
	0b010: {1, 0},
	0b011: {1, 1},
	0b100: {2, 2},
	0b101: {0, 2},
	0b110: {2, 0},
	0b111: {2, 1},
}

// decodeTable is the inverse of encodeTable, indexed by I*3+II.
// The unused (1,2) slot is marked with 0xFF.
var decodeTable = [9]uint8{}

func init() {
	for i := range decodeTable {
		decodeTable[i] = 0xFF
	}
	for v, p := range encodeTable {
		decodeTable[p.I*NumLevels+p.II] = uint8(v)
	}
}

// Encode maps a 3-bit value (0..7) to its level pair per Table 1.
// It panics on out-of-range input; callers hold the 3-bit invariant.
func Encode(v uint8) LevelPair {
	if v > 7 {
		panic(fmt.Sprintf("reducecode: value %d out of 3-bit range", v))
	}
	return encodeTable[v]
}

// Decode maps a level pair back to its 3-bit value. ok is false for the
// unused (1,2) combination and for out-of-range levels.
func Decode(p LevelPair) (v uint8, ok bool) {
	if p.I >= NumLevels || p.II >= NumLevels {
		return 0, false
	}
	v = decodeTable[p.I*NumLevels+p.II]
	return v, v != 0xFF
}

// DecodeClosest decodes like Decode but resolves the unused (1,2)
// combination to 0b100 (the codeword (2,2)): retention charge loss —
// the dominant error source at high P/E — reaches (1,2) by dropping
// cell I of (2,2), and C2C interference reaches it by lifting cell I of
// (0,2)=101, which is also one bit from 100. Only the rare upward
// distortion of (1,1) pays more than one bit error under this policy.
func DecodeClosest(p LevelPair) uint8 {
	if v, ok := Decode(p); ok {
		return v
	}
	if p.I >= NumLevels || p.II >= NumLevels {
		panic(fmt.Sprintf("reducecode: level pair (%d,%d) out of range", p.I, p.II))
	}
	return 0b100
}

// MSB returns the most significant bit of the 3-bit value stored in the
// pair (the upper-page bit).
func MSB(v uint8) uint8 { return (v >> 2) & 1 }

// LSBs returns the two least significant bits (the lower/middle-page
// bits).
func LSBs(v uint8) uint8 { return v & 0b11 }

// Plan is the outcome of the two-step program algorithm of Table 2:
// the pair's levels after the first step (two LSBs programmed) and
// after the second step (MSB programmed).
type Plan struct {
	AfterStep1 LevelPair
	AfterStep2 LevelPair
}

// PlanProgram returns the two-step programming plan for a 3-bit value.
//
// Step 1 programs the two LSBs: each cell moves from the erased level 0
// to level 1 if its LSB is 1. Step 2 programs the MSB: if the MSB is 0
// the levels stay; if 1, the pair transitions per Table 2 to the final
// Table 1 combination. Vth levels only ever increase (ISPP cannot remove
// charge), which PlanProgram's tests verify for all values.
func PlanProgram(v uint8) Plan {
	if v > 7 {
		panic(fmt.Sprintf("reducecode: value %d out of 3-bit range", v))
	}
	lsbs := LSBs(v)
	step1 := LevelPair{I: (lsbs >> 1) & 1, II: lsbs & 1}
	step2 := step1
	if MSB(v) == 1 {
		step2 = encodeTable[v]
	}
	return Plan{AfterStep1: step1, AfterStep2: step2}
}

// Encoding returns the noise-model encoding for ReduceCode pairs:
// level occupancy under uniform random data (cell I holds levels
// 0/1/2 with probability 3/8, 2/8, 3/8 and cell II with 3/8, 3/8, 2/8 —
// averaged here over the two positions), 1.5 information bits per cell,
// and the one-bit-per-level-error adjacency property.
func Encoding() noise.Encoding {
	occ := make([]float64, NumLevels)
	for v := uint8(0); v < 8; v++ {
		p := encodeTable[v]
		occ[p.I] += 0.5 / 8
		occ[p.II] += 0.5 / 8
	}
	return noise.Encoding{
		Name:                   "reducecode",
		Occupancy:              occ,
		BitsPerCell:            float64(BitsPerPair) / 2,
		BitErrorsPerLevelError: 1,
	}
}

// GrayOn3Levels returns the naive alternative ReduceCode replaces: Gray
// mapping on 3 levels stores only one bit per cell (levels 0 and 2 used,
// level 1 unused), halving capacity. Used by the ablation benchmarks.
func GrayOn3Levels() noise.Encoding {
	return noise.Encoding{
		Name:                   "gray-3level-1bit",
		Occupancy:              []float64{0.5, 0, 0.5},
		BitsPerCell:            1,
		BitErrorsPerLevelError: 1,
	}
}
