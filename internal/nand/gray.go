// Package nand is a cell-accurate MLC NAND flash array simulator: an
// even/odd bitline wordline structure holding real threshold voltages,
// ISPP programming with cell-to-cell interference applied to already-
// programmed neighbours, retention aging, and page-level access in both
// the normal state (4 levels, Gray code: lower page = LSB, upper page =
// MSB) and the reduced state (3 levels, ReduceCode pairing with lower /
// middle / upper pages).
package nand

import "fmt"

// Gray code mapping of paper §2.1: bit patterns 11, 10, 00, 01 map to
// Vth levels 0, 1, 2, 3. The left bit is the MSB (upper page), the right
// bit the LSB (lower page).
var grayLevelToBits = [4]struct{ MSB, LSB uint8 }{
	{1, 1}, // level 0
	{1, 0}, // level 1
	{0, 0}, // level 2
	{0, 1}, // level 3
}

// GrayEncode maps (MSB, LSB) to the MLC Vth level.
func GrayEncode(msb, lsb uint8) uint8 {
	for lvl, b := range grayLevelToBits {
		if b.MSB == msb&1 && b.LSB == lsb&1 {
			return uint8(lvl)
		}
	}
	panic("nand: unreachable gray encode")
}

// GrayDecode maps an MLC Vth level to its (MSB, LSB) bits.
func GrayDecode(level uint8) (msb, lsb uint8) {
	if level > 3 {
		panic(fmt.Sprintf("nand: level %d out of MLC range", level))
	}
	b := grayLevelToBits[level]
	return b.MSB, b.LSB
}
