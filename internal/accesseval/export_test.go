package accesseval

import "flexlevel/internal/hotdata"

// Overhead returns the LDPC-overhead estimate L_f × L_sensing for a read
// of lpn that used the given sensing levels.
func (c *Controller) Overhead(lpn uint64, levels int) int {
	return c.hot.FreqLevel(lpn, Lf) * c.SensingBucket(levels)
}

// MemoryFootprintBytes estimates the controller's DRAM cost: 4 bytes
// per ReducedCell pool entry (the paper's §5 estimate — 8MB for a 64GB
// pool of 16KB pages) plus the bloom filters of the read-frequency
// identifier.
func (c *Controller) MemoryFootprintBytes() int64 {
	const bytesPerEntry = 4
	pool := int64(c.params.PoolPages) * bytesPerEntry
	const bloom = hotdata.Filters * hotdata.FilterBits / 8
	return pool + bloom
}
