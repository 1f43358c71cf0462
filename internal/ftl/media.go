package ftl

// The durable side of the simulated device. Everything in Media
// survives a power cut; everything else in FTL (the mapping tables,
// valid counts, the journal's RAM buffer) is volatile controller state
// that Recover must rebuild from Media alone.
//
// Per-page OOB metadata is stored struct-of-arrays (DESIGN.md §16): one
// uint32 word packs the LPN with the Written/Valid/state flags, and the
// sequence number splits into an always-present low word plus a lazily
// allocated high half-word. At 8 bytes per physical page (10 once the
// high words materialize) a multi-million-page device's OOB area is 4x
// smaller than the 32-byte OOB struct it replaces, which is what makes
// the full-device lifetime sweep fit in memory. The OOB struct stays
// the package's read API: PageOOB reassembles it on demand.

// OOB is the out-of-band (spare-area) metadata programmed atomically
// with every page: the logical page it stores, the block state it was
// encoded for, and the global mutation sequence number of the program.
// Valid models the OOB CRC check — a page whose program was torn by
// power loss (or reported a program-status failure) carries Written
// without Valid and is discarded by recovery.
type OOB struct {
	Written bool
	Valid   bool
	LPN     uint64
	State   BlockState
	Seq     uint64
}

// lpnflags word layout. The LPN occupies the low 29 bits, capping a
// journaled device at 2^29 logical pages (8TB at 16KB pages) —
// Config.Validate enforces the bound.
const (
	oobLPNBits = 29
	oobLPNMask = 1<<oobLPNBits - 1
	oobWritten = 1 << 29
	oobValid   = 1 << 30
	oobReduced = 1 << 31
	maxOOBLPN  = uint64(oobLPNMask)
	seqHiShift = 32
)

// Media is the durable storage image: per-page OOB metadata, the
// flushed journal log, and the last complete checkpoint. The journal's
// unflushed RAM buffer lives in the FTL and dies with it.
type Media struct {
	pagesPerBlock int
	phys          int

	// Packed per-page OOB (struct of arrays).
	lpnflags []uint32 // LPN + Written/Valid/state flags
	seqLo    []uint32 // low 32 bits of the program sequence number
	seqHi    []uint16 // high 16 bits; nil until a seq first exceeds 2^32-1

	journal    []byte
	checkpoint []byte
}

// newMedia builds an erased media image for the given geometry.
func newMedia(cfg Config) *Media {
	phys := cfg.PagesPerBlock * cfg.Blocks
	return &Media{
		pagesPerBlock: cfg.PagesPerBlock,
		phys:          phys,
		lpnflags:      make([]uint32, phys),
		seqLo:         make([]uint32, phys),
	}
}

// PageOOB returns the OOB metadata of a physical page. Out-of-range
// pages read as erased.
func (m *Media) PageOOB(ppn int64) OOB {
	if m == nil || ppn < 0 || ppn >= int64(m.phys) {
		return OOB{}
	}
	w := m.lpnflags[ppn]
	oob := OOB{
		Written: w&oobWritten != 0,
		Valid:   w&oobValid != 0,
		LPN:     uint64(w & oobLPNMask),
	}
	if w&oobReduced != 0 {
		oob.State = ReducedState
	}
	oob.Seq = uint64(m.seqLo[ppn])
	if m.seqHi != nil {
		oob.Seq |= uint64(m.seqHi[ppn]) << seqHiShift
	}
	return oob
}

// setTorn marks ppn as a torn program: Written without Valid, the state
// a real spare area would be left in when power (or a program-status
// failure) interrupted the pulse sequence.
func (m *Media) setTorn(ppn int64) {
	m.lpnflags[ppn] = oobWritten
	m.seqLo[ppn] = 0
	if m.seqHi != nil {
		m.seqHi[ppn] = 0
	}
}

// setProgrammed records a successful program's OOB. seq values at or
// above 2^48 would truncate, but the global mutation counter cannot
// reach that in any simulated lifetime (2.8e14 media operations).
func (m *Media) setProgrammed(ppn int64, lpn uint64, state BlockState, seq uint64) {
	w := uint32(lpn) | oobWritten | oobValid
	if state == ReducedState {
		w |= oobReduced
	}
	m.lpnflags[ppn] = w
	m.seqLo[ppn] = uint32(seq)
	if hi := uint16(seq >> seqHiShift); hi != 0 || m.seqHi != nil {
		if m.seqHi == nil {
			// First sequence number past 2^32-1: materialize the high
			// words. All earlier pages have hi == 0, which the fresh
			// zero-valued array already encodes.
			m.seqHi = make([]uint16, m.phys)
		}
		m.seqHi[ppn] = hi
	}
}

// Clone returns an independent copy of the media image, so a second
// recovery can be simulated without disturbing the first.
func (m *Media) Clone() *Media {
	if m == nil {
		return nil
	}
	c := &Media{
		pagesPerBlock: m.pagesPerBlock,
		phys:          m.phys,
		lpnflags:      append([]uint32(nil), m.lpnflags...),
		seqLo:         append([]uint32(nil), m.seqLo...),
		journal:       append([]byte(nil), m.journal...),
		checkpoint:    append([]byte(nil), m.checkpoint...),
	}
	if m.seqHi != nil {
		c.seqHi = append([]uint16(nil), m.seqHi...)
	}
	return c
}

// eraseBlock clears the OOB of every page in block b (the erase pulse
// resets the spare area along with the data area).
func (m *Media) eraseBlock(b int) {
	base := b * m.pagesPerBlock
	for p := 0; p < m.pagesPerBlock; p++ {
		m.lpnflags[base+p] = 0
		m.seqLo[base+p] = 0
		if m.seqHi != nil {
			m.seqHi[base+p] = 0
		}
	}
}

// MetaBytes returns the media image's metadata footprint: the packed
// per-page OOB arrays plus the durable journal log and checkpoint blob.
func (m *Media) MetaBytes() int64 {
	if m == nil {
		return 0
	}
	return int64(len(m.lpnflags))*4 + int64(len(m.seqLo))*4 + int64(len(m.seqHi))*2 +
		int64(len(m.journal)) + int64(len(m.checkpoint))
}
