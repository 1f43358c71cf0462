package device

// ReadPageAdaptive escalates sensing levels one at a time until the
// decoder converges or maxLevels is reached — the read-retry flow the
// storage system models with its attempts sequences.
func (pc *PageCodec) ReadPageAdaptive(row, maxLevels int) (ReadResult, error) {
	var last ReadResult
	for l := 0; l <= maxLevels; l++ {
		res, err := pc.ReadPage(row, l)
		if err != nil {
			return ReadResult{}, err
		}
		if res.OK {
			return res, nil
		}
		last = res
	}
	return last, nil
}
