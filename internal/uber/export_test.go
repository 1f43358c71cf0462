package uber

import "math"

// logChoose returns log C(m, i) via the lgamma table.
func logChoose(m, i int) float64 {
	tab := logFact(m)
	return tab[m] - tab[i] - tab[m-i]
}

// LogUBER returns log10 of UBER, usable when UBER underflows float64.
func LogUBER(c Code, k int, pc float64) float64 {
	tail := logBinomTail(c.TotalBits, k, pc)
	return (tail - math.Log(float64(c.InfoBits))) / math.Ln10
}
