package nunma

// RetentionMargins returns the verify-to-read-reference distances of the
// two programmed levels — the quantity NUNMA adjusts non-uniformly.
func (c Config) RetentionMargins() (m1, m2 float64) {
	return c.Vverify1 - c.VreadRef1, c.Vverify2 - c.VreadRef2
}
