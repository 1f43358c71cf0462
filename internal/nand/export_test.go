package nand

// Erase resets every cell to the erased distribution and bumps the P/E
// counter.
func (a *Array) Erase() {
	a.eraseAll()
	a.peCycles++
}

// GrayAdjacentOneBit reports whether the Gray mapping's defining
// property holds between two levels: adjacent levels differ in exactly
// one bit. Used by tests.
func GrayAdjacentOneBit(a, b uint8) bool {
	ma, la := GrayDecode(a)
	mb, lb := GrayDecode(b)
	diff := 0
	if ma != mb {
		diff++
	}
	if la != lb {
		diff++
	}
	return diff == 1
}
