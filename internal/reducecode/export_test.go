package reducecode

// Valid reports whether the pair is one of the 8 used combinations.
// (1,2) is the unused ninth combination.
func (p LevelPair) Valid() bool {
	return p.I < NumLevels && p.II < NumLevels && !(p.I == 1 && p.II == 2)
}
