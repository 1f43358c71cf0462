package ldpc

// Edges returns the number of edges in the Tanner graph.
func (c *Code) Edges() int {
	n := 0
	for _, vs := range c.checkVars {
		n += len(vs)
	}
	return n
}

// CheckDegrees returns the histogram of check-node degrees, used by
// tests to confirm the balancer works.
func (c *Code) CheckDegrees() (min, max int) {
	min, max = len(c.checkVars[0]), len(c.checkVars[0])
	for _, vs := range c.checkVars {
		if len(vs) < min {
			min = len(vs)
		}
		if len(vs) > max {
			max = len(vs)
		}
	}
	return min, max
}
