// BER surface: the memoized channel-statistics lookup behind every
// simulated read (DESIGN.md §11). The device physics BER is a function
// of (block state, P/E count, retention age, read-reference shift);
// reads quantize age to whole hours — exactly the truncation the
// pre-surface code applied — and shifts are whole millivolts, so the key
// space a steady-state workload touches is tiny (states × P/E points ×
// distinct age hours × the few shifts calibration visits). Each entry
// also carries its level-cache key (ssd.LevelKey), so the steady-state
// read path evaluates zero Erfc/pow/Log calls, and nominal reads inside
// the dense window (below) hash nothing either: their entries also hold
// an ssd.LevelSlot, through which the device answers the sensing-level
// rule without probing its level cache's map.
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
	"flexlevel/internal/ssd"
)

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
// the traffic, and their P/E counts sit just above the runner's starting
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
// level-cache key, ssd.LevelKey(ber), both computed once on a miss. set
// marks a filled dense slot; map entries always have it. slot is the
// device's level-cache shortcut for the point; only dense entries hand
// it out, since a map value has no stable address.
type surfaceEntry struct {
	ber  float64
	key  int64
	set  bool
	slot ssd.LevelSlot
}

// stateModel is one block state's BER model with its shift-0
// interference term, which depends on neither P/E nor age and so is
// computed once instead of on every miss.
type stateModel struct {
	*noise.BERModel
	c2c0 float64
}

func newStateModel(m *noise.BERModel) stateModel {
	return stateModel{BERModel: m, c2c0: m.C2CBERShifted(0)}
}

// BERSurface memoizes the two per-state BER models over the quantized
// key space. It is deliberately NOT goroutine-safe: one surface belongs
// to one Runner, and the experiment engine gives every shard its own
// Runner (DESIGN.md §9), so no lock is needed on the hot path.
//
// Every valid key lives in exactly one place: the dense window when it
// is a shift-0 point inside it, the map otherwise. n counts the entries
// of both, so the cap, the reset and the Hits/Misses/Resets counters
// behave as if all entries sat in one map.
type BERSurface struct {
	normal  stateModel
	reduced stateModel

	anchorPE int
	ageRows  int
	dense    [2][][]surfaceEntry // [state][pe-anchorPE] -> row over age hours; rows allocate on first use

	cache map[int64]surfaceEntry
	n     int
	stats ssd.CacheStats
}

// newBERSurface builds the surface for the named reduced-state
// (NUNMA) configuration, with its dense window anchored at P/E count
// anchorPE and sized for ages up to maxAgeHours plus headroom.
func newBERSurface(nunmaName string, anchorPE int, maxAgeHours float64) (*BERSurface, error) {
	// The reduced pool takes a Table 3 configuration only; nunma.Model
	// would also accept the baseline and basic cells.
	if _, err := nunma.ByName(nunmaName); err != nil {
		return nil, err
	}
	normalModel, err := nunma.Model("baseline")
	if err != nil {
		return nil, err
	}
	reducedModel, err := nunma.Model(nunmaName)
	if err != nil {
		return nil, err
	}
	s := &BERSurface{
		normal:   newStateModel(normalModel),
		reduced:  newStateModel(reducedModel),
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
	return s, nil
}

// BER is the ssd.BERFunc the surface exports: the raw BER with every
// read reference moved by shiftMv millivolts, its level-cache key, and
// the point's level slot when it lies in the dense window (nil for map
// and unpackable points). Age is truncated to whole hours before
// evaluation — the same quantization the pre-surface code applied — so
// cached and uncached paths return bit-identical values.
func (s *BERSurface) BER(state ftl.BlockState, pe int, ageHours float64, shiftMv int) (float64, int64, *ssd.LevelSlot) {
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
		v := s.eval(state, pe, ageQ, shiftMv)
		return v, ssd.LevelKey(v), nil
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
	v := s.eval(state, pe, ageQ, shiftMv)
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
	return surfaceEntry{ber: v, key: ssd.LevelKey(v), set: true}
}

// eval computes the BER directly from the state's model. A nominal
// point adds the precomputed interference term to its retention term in
// TotalBERShifted's operand order, so the sum is bit-identical.
func (s *BERSurface) eval(state ftl.BlockState, pe, ageQ, shiftMv int) float64 {
	m := &s.normal
	if state == ftl.ReducedState {
		m = &s.reduced
	}
	if shiftMv == 0 {
		return m.c2c0 + m.RetentionBERShifted(pe, float64(ageQ), 0)
	}
	return m.TotalBERShifted(pe, float64(ageQ), float64(shiftMv)/1000)
}

// Stats returns the surface's counters (ssd.Device snapshots these via
// SetBERCacheStats to report per-measurement-window activity).
func (s *BERSurface) Stats() ssd.CacheStats { return s.stats }
