package stats

// Percentile is Percentiles for one p.
func (s *Sample) Percentile(p float64) float64 { return s.Percentiles(p)[0] }
