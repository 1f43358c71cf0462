// BER surface: the memo in front of the device physics behind every
// simulated read (DESIGN.md §11). The physics BER is a function of
// (block state, P/E count, retention age, read-reference shift); reads
// quantize age to whole hours and shifts are whole millivolts, so the
// key space a steady-state workload touches is tiny (states × P/E
// points × distinct age hours × the few shifts calibration visits).
// Each entry also carries its level-cache key (levelKey), so the
// steady-state read path evaluates zero Erfc/pow/Log calls, and nominal
// reads inside the dense window (below) hash nothing either: their
// entries also hold a levelSlot, through which the device answers the
// sensing-level rule without probing its level cache's map.
//
// Quantized precomputation of channel statistics at these resolutions
// is lossless for the decisions downstream (cf. mutual-information
// optimized quantization, Wang et al., and adaptive read thresholds,
// Peleato et al.): the sensing-level rule's step boundaries are orders
// of magnitude wider than one age-hour of BER drift at any calibrated
// operating point.
package ssd

import "flexlevel/internal/ftl"

// BERFunc is the device physics: the raw bit error rate of a page in a
// block of the given state, at the block's P/E wear, after ageHours
// whole hours of storage, read with every reference moved by shiftMv
// millivolts (0 is the nominal placement; the calibration tracker
// probes and reads at other shifts). The BER surface memoizes it, so it
// must be a pure function of its inputs.
type BERFunc func(state ftl.BlockState, pe, ageHours, shiftMv int) float64

// berSurfaceCap bounds the memo: dense window and map together. The
// practical key space is a few thousand entries; the cap only guards
// pathological sweeps that walk millions of distinct (pe, age) points.
// Overflow resets both — the surface is a pure memo, so a reset costs
// recomputation, never correctness.
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

// Dense shift-0 window. Nominal (uncalibrated) reads are almost all of
// the traffic, and their P/E counts sit just above the device's starting
// wear while their ages stay below MaxDataAgeHours plus the simulated
// span. Those points live in plain arrays instead of the map: per block
// state, one row per P/E count in [anchorPE, anchorPE+densePERows),
// each row indexed by whole age hour in [0, ageRows).
const (
	densePERows = 32
	// denseAgeHeadroom is the simulated span (hours) past MaxDataAgeHours
	// the window still covers; older pages take the map.
	denseAgeHeadroom = 48
	// maxDenseAgeRows caps a row so an extreme MaxDataAgeHours cannot
	// make one lazily allocated row large.
	maxDenseAgeRows = 1 << 13
)

// surfaceEntry is one memoized surface point: the raw BER and its
// level-cache key, levelKey(ber), both computed once on a miss. set
// marks a filled dense slot; map entries always have it. slot is the
// level cache's answer for the point; only dense entries keep one,
// since a map value has no stable address.
type surfaceEntry struct {
	ber  float64
	key  int64
	set  bool
	slot levelSlot
}

// BERSurface memoizes a BERFunc over the quantized key space. It
// belongs to one device and is deliberately NOT goroutine-safe: the
// experiment engine gives every shard its own Runner (DESIGN.md §9), so
// no lock is needed on the hot path. The device zeroes its counters
// when it is built and at every measurement reset; a device restart
// keeps the surface, whose points stay true across a power loss.
//
// Every valid key lives in exactly one place: the dense window when it
// is a shift-0 point inside it, the map otherwise. n counts the entries
// of both, so the cap, the reset and the Hits/Misses/Resets counters
// behave as if all entries sat in one map.
type BERSurface struct {
	ber BERFunc

	anchorPE int
	ageRows  int
	dense    [2][][]surfaceEntry // [state][pe-anchorPE] -> row over age hours; rows allocate on first use

	cache map[int64]surfaceEntry
	n     int
	stats CacheStats
}

// NewBERSurface memoizes ber, with the dense window anchored at P/E
// count anchorPE and sized for ages up to maxAgeHours plus headroom.
func NewBERSurface(ber BERFunc, anchorPE int, maxAgeHours float64) *BERSurface {
	s := &BERSurface{
		ber:      ber,
		anchorPE: anchorPE,
		ageRows:  maxDenseAgeRows,
		cache:    make(map[int64]surfaceEntry),
	}
	if maxAgeHours < maxDenseAgeRows-denseAgeHeadroom-1 {
		s.ageRows = int(maxAgeHours) + 1 + denseAgeHeadroom
	}
	// The window holds only keys surfaceKey packs: window and map
	// together cache (and count) exactly the packable points.
	rows := min(densePERows, max(1<<keyPEBits-anchorPE, 0))
	for st := range s.dense {
		s.dense[st] = make([][]surfaceEntry, rows)
	}
	return s
}

// BER returns the raw BER of a point through the memo (see lookup).
func (s *BERSurface) BER(state ftl.BlockState, pe int, ageHours float64, shiftMv int) float64 {
	ber, _, _ := s.lookup(state, pe, ageHours, shiftMv)
	return ber
}

// lookup returns the raw BER with every read reference moved by shiftMv
// millivolts, its level-cache key, and the point's level slot when it
// lies in the dense window (nil for map and unpackable points). Age is
// truncated to whole hours before evaluation, so cached and uncached
// paths return bit-identical values.
func (s *BERSurface) lookup(state ftl.BlockState, pe int, ageHours float64, shiftMv int) (float64, int64, *levelSlot) {
	ageQ := int(ageHours)
	if shiftMv == 0 {
		if e := s.denseSlot(state, pe, ageQ); e != nil {
			if e.set {
				s.stats.Hits++
			} else {
				*e = s.miss(state, pe, ageQ, 0)
			}
			return e.ber, e.key, &e.slot
		}
	}
	key, ok := surfaceKey(state, pe, ageQ, shiftMv)
	if !ok {
		v := s.ber(state, pe, ageQ, shiftMv)
		return v, levelKey(v), nil
	}
	if e, hit := s.cache[key]; hit {
		s.stats.Hits++
		return e.ber, e.key, nil
	}
	v := s.miss(state, pe, ageQ, shiftMv)
	s.cache[key] = v
	return v.ber, v.key, nil
}

// denseSlot returns the window slot of a shift-0 point, allocating its
// row on first use, or nil when the point lies outside the window.
func (s *BERSurface) denseSlot(state ftl.BlockState, pe, ageQ int) *surfaceEntry {
	if uint(state) >= uint(len(s.dense)) || uint(ageQ) >= uint(s.ageRows) {
		return nil
	}
	rows := s.dense[state]
	i := pe - s.anchorPE
	if uint(i) >= uint(len(rows)) {
		return nil
	}
	if rows[i] == nil {
		rows[i] = make([]surfaceEntry, s.ageRows)
	}
	return &rows[i][ageQ]
}

// miss evaluates a point not in the memo and makes room for it: a full
// surface drops every entry, dense and mapped alike, before the new one
// is stored. Rows are cleared in place, so a slot pointer taken before
// the reset stays valid, and every level slot is emptied with its
// entry.
func (s *BERSurface) miss(state ftl.BlockState, pe, ageQ, shiftMv int) surfaceEntry {
	s.stats.Misses++
	v := s.ber(state, pe, ageQ, shiftMv)
	if s.n >= berSurfaceCap {
		s.cache = make(map[int64]surfaceEntry, berSurfaceCap/4)
		for _, rows := range s.dense {
			for _, row := range rows {
				clear(row)
			}
		}
		s.n = 0
		s.stats.Resets++
	}
	s.n++
	return surfaceEntry{ber: v, key: levelKey(v), set: true}
}
