package fault

// TotalInjected returns the number of faults injected across classes.
func (s Stats) TotalInjected() int64 {
	var n int64
	for _, v := range s.Injected {
		n += v
	}
	return n
}
