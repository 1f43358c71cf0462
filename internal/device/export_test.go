package device

// ReadPageAdaptive escalates sensing levels one at a time until the
// decoder converges or maxLevels is reached — the read-retry flow the
// storage system models with its attempts sequences — and returns the
// last read with the levels it sensed at.
func (pc *PageCodec) ReadPageAdaptive(row, maxLevels int) (res ReadResult, levels int, err error) {
	for l := 0; l <= maxLevels; l++ {
		if res, err = pc.ReadPage(row, l); err != nil || res.OK {
			return res, l, err
		}
	}
	return res, maxLevels, nil
}
