// BER surface: the memoized channel-statistics lookup behind every
// simulated read (DESIGN.md §11). The device physics BER is a function
// of (block state, P/E count, retention age, read-reference shift);
// reads quantize age to whole hours — exactly the truncation the
// pre-surface code applied — and shifts are whole millivolts, so the key
// space a steady-state workload touches is tiny (states × P/E points ×
// distinct age hours × the few shifts calibration visits). Caching on an int64 composite key
// makes the steady-state read path evaluate zero Erfc/pow calls.
//
// Quantized precomputation of channel statistics at these resolutions
// is lossless for the decisions downstream (cf. mutual-information
// optimized quantization, Wang et al., and adaptive read thresholds,
// Peleato et al.): the sensing-level rule's step boundaries are orders
// of magnitude wider than one age-hour of BER drift at any calibrated
// operating point.
package core

import (
	"flexlevel/internal/ftl"
	"flexlevel/internal/noise"
	"flexlevel/internal/nunma"
	"flexlevel/internal/reducecode"
	"flexlevel/internal/ssd"
)

// berSurfaceCap bounds the memo map. The practical key space is a few
// thousand entries; the cap only guards pathological sweeps that walk
// millions of distinct (pe, age) points. Overflow resets the map — the
// surface is a pure memo, so a reset costs recomputation, never
// correctness.
const berSurfaceCap = 1 << 15

// Packed surface key layout, from the top: one unused sign bit, one
// block-state bit, then the P/E count, the age in whole hours and the
// read-reference shift in millivolts (stored offset by keyShiftBias so
// negative shifts pack as non-negative fields).
const (
	keyShiftBits = 12
	keyAgeBits   = 26
	keyPEBits    = 24
	keyShiftBias = 1 << (keyShiftBits - 1)
)

// surfaceKey packs (state, pe, quantized age, shift) into one int64.
// Inputs outside the packed ranges (pe ≥ 2^24, age ≥ 2^26 hours, a
// shift outside [-2048, 2047] mV) report false and fall back to direct
// (uncached) evaluation.
func surfaceKey(state ftl.BlockState, pe, ageQ, shiftMv int) (int64, bool) {
	shiftQ := shiftMv + keyShiftBias
	if pe < 0 || pe >= 1<<keyPEBits || ageQ < 0 || ageQ >= 1<<keyAgeBits ||
		shiftQ < 0 || shiftQ >= 1<<keyShiftBits || state < 0 || state > 1 {
		return 0, false
	}
	return int64(state)<<(keyPEBits+keyAgeBits+keyShiftBits) |
		int64(pe)<<(keyAgeBits+keyShiftBits) | int64(ageQ)<<keyShiftBits | int64(shiftQ), true
}

// BERSurface memoizes the two per-state BER models over the quantized
// key space. It is deliberately NOT goroutine-safe: one surface belongs
// to one Runner, and the experiment engine gives every shard its own
// Runner (DESIGN.md §9), so no lock is needed on the hot path.
type BERSurface struct {
	normal  *noise.BERModel
	reduced *noise.BERModel
	cache   map[int64]float64
	stats   ssd.CacheStats
}

// newBERSurface builds the surface for the named reduced-state
// (NUNMA) configuration.
func newBERSurface(nunmaName string) (*BERSurface, error) {
	normalModel, err := noise.NewBERModel(nunma.BaselineMLC(), noise.MLCGray())
	if err != nil {
		return nil, err
	}
	cfg, err := nunma.ByName(nunmaName)
	if err != nil {
		return nil, err
	}
	reducedModel, err := noise.NewBERModel(cfg.Spec(), reducecode.Encoding())
	if err != nil {
		return nil, err
	}
	return &BERSurface{
		normal:  normalModel,
		reduced: reducedModel,
		cache:   make(map[int64]float64),
	}, nil
}

// BER is the ssd.BERFunc the surface exports: the raw BER with every
// read reference moved by shiftMv millivolts. Age is truncated to whole
// hours before evaluation — the same quantization the pre-surface code
// applied — so cached and uncached paths return bit-identical values.
func (s *BERSurface) BER(state ftl.BlockState, pe int, ageHours float64, shiftMv int) float64 {
	ageQ := int(ageHours)
	key, ok := surfaceKey(state, pe, ageQ, shiftMv)
	if !ok {
		return s.eval(state, pe, ageQ, shiftMv)
	}
	if v, hit := s.cache[key]; hit {
		s.stats.Hits++
		return v
	}
	s.stats.Misses++
	v := s.eval(state, pe, ageQ, shiftMv)
	if len(s.cache) >= berSurfaceCap {
		s.cache = make(map[int64]float64, berSurfaceCap/4)
		s.stats.Resets++
	}
	s.cache[key] = v
	return v
}

// eval computes the BER directly from the state's model.
func (s *BERSurface) eval(state ftl.BlockState, pe, ageQ, shiftMv int) float64 {
	m := s.normal
	if state == ftl.ReducedState {
		m = s.reduced
	}
	return m.TotalBERShifted(pe, float64(ageQ), float64(shiftMv)/1000)
}

// Stats returns the surface's counters (ssd.Device snapshots these via
// SetBERCacheStats to report per-measurement-window activity).
func (s *BERSurface) Stats() ssd.CacheStats { return s.stats }
