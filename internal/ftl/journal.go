package ftl

// Metadata journal and checkpoint encoding (DESIGN.md §10). The FTL's
// mapping table lives in controller RAM; what survives a power cut is
// the NAND array itself plus two metadata structures written to a
// dedicated system area:
//
//   - the *journal*: a write-ahead log of mapping-table mutations
//     (page programs, erases, retirements, block allocations),
//     buffered in RAM and flushed one metadata page at a time;
//   - the *checkpoint*: a periodic full snapshot of the mapping state
//     that bounds journal replay (and journal size).
//
// Both are framed byte streams with explicit CRC32s so recovery can
// tell a torn tail (the flush that power interrupted — expected,
// silently discarded) from real corruption (a CRC-valid frame whose
// contents do not parse — surfaced as ErrCorruptJournal).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// ErrCorruptJournal is returned by the journal and checkpoint decoders
// for byte streams that are structurally invalid beyond what a torn
// final write can produce. Recovery treats it as unrecoverable metadata
// damage; the fuzz contract is that arbitrary input either decodes
// cleanly or returns this error — never panics.
var ErrCorruptJournal = errors.New("ftl: corrupt journal")

// JournalConfig sizes the crash-consistency layer. The zero value
// disables it entirely, leaving the FTL bit-identical to the
// journal-free implementation (no OOB writes, no metadata programs).
type JournalConfig struct {
	// Enabled turns on per-page OOB metadata, the write-ahead journal
	// and periodic checkpoints.
	Enabled bool
	// FlushRecords is how many buffered records trigger a journal page
	// flush (one metadata-page program). 0 selects DefaultFlushRecords.
	FlushRecords int
	// CheckpointEveryFlushes is how many journal page flushes trigger a
	// full checkpoint. 0 selects DefaultCheckpointEveryFlushes.
	CheckpointEveryFlushes int
}

// DefaultFlushRecords is the journal page capacity used when
// JournalConfig.FlushRecords is zero: roughly one 16KB metadata page
// of ~26-byte records, rounded to a power of two.
const DefaultFlushRecords = 512

// DefaultCheckpointEveryFlushes is the checkpoint cadence used when
// JournalConfig.CheckpointEveryFlushes is zero.
const DefaultCheckpointEveryFlushes = 32

// Validate reports sizing problems.
func (c JournalConfig) Validate() error {
	if c.FlushRecords < 0 {
		return fmt.Errorf("ftl: negative journal flush threshold")
	}
	if c.CheckpointEveryFlushes < 0 {
		return fmt.Errorf("ftl: negative checkpoint cadence")
	}
	return nil
}

func (c JournalConfig) flushRecords() int {
	if c.FlushRecords > 0 {
		return c.FlushRecords
	}
	return DefaultFlushRecords
}

func (c JournalConfig) checkpointEvery() int {
	if c.CheckpointEveryFlushes > 0 {
		return c.CheckpointEveryFlushes
	}
	return DefaultCheckpointEveryFlushes
}

// Record types. Every record carries the global mutation sequence
// number assigned when the mutation happened, so replay can skip
// records already covered by a checkpoint and order OOB-scan candidates
// against the replayed state. Type 2 is unassigned and decodes as an
// unknown record.
const (
	recProgram byte = 1 // page program: lpn now lives at ppn (write, migrate, GC copy, retire copy)
	recErase   byte = 3 // block erased; PE is the post-erase cycle count
	recRetire  byte = 4 // block retired (grown bad); pulls a spare if one is left
	recAlloc   byte = 5 // free block opened for programming in State
)

// Record is one journal entry.
type Record struct {
	Type  byte
	Seq   uint64
	LPN   uint64     // recProgram
	PPN   int64      // recProgram
	Block int32      // recErase, recRetire, recAlloc
	PE    int32      // recErase
	State BlockState // recProgram, recAlloc
}

const (
	journalMagic = 0x464c4a31 // "FLJ1"
	// maxFramePayload bounds a single journal frame; anything larger is
	// treated as a torn length field rather than allocated.
	maxFramePayload = 1 << 24
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendRecord encodes one record onto buf.
func appendRecord(buf []byte, r Record) []byte {
	buf = append(buf, r.Type)
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	switch r.Type {
	case recProgram:
		buf = binary.LittleEndian.AppendUint64(buf, r.LPN)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.PPN))
		buf = append(buf, byte(r.State))
	case recErase:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Block))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.PE))
	case recRetire:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Block))
	case recAlloc:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Block))
		buf = append(buf, byte(r.State))
	}
	return buf
}

// parseRecord decodes one record from data, returning the bytes
// consumed. Any structural problem is ErrCorruptJournal: parseRecord is
// only called on CRC-valid frames, where a short or unknown record
// cannot be a torn write.
func parseRecord(data []byte) (Record, int, error) {
	if len(data) < 9 {
		return Record{}, 0, fmt.Errorf("%w: truncated record header", ErrCorruptJournal)
	}
	r := Record{Type: data[0], Seq: binary.LittleEndian.Uint64(data[1:9])}
	rest := data[9:]
	n := 9
	need := func(k int) error {
		if len(rest) < k {
			return fmt.Errorf("%w: truncated %d-byte record body", ErrCorruptJournal, k)
		}
		return nil
	}
	switch r.Type {
	case recProgram:
		if err := need(17); err != nil {
			return Record{}, 0, err
		}
		r.LPN = binary.LittleEndian.Uint64(rest[0:8])
		r.PPN = int64(binary.LittleEndian.Uint64(rest[8:16]))
		r.State = BlockState(rest[16])
		n += 17
	case recErase:
		if err := need(8); err != nil {
			return Record{}, 0, err
		}
		r.Block = int32(binary.LittleEndian.Uint32(rest[0:4]))
		r.PE = int32(binary.LittleEndian.Uint32(rest[4:8]))
		n += 8
	case recRetire:
		if err := need(4); err != nil {
			return Record{}, 0, err
		}
		r.Block = int32(binary.LittleEndian.Uint32(rest[0:4]))
		n += 4
	case recAlloc:
		if err := need(5); err != nil {
			return Record{}, 0, err
		}
		r.Block = int32(binary.LittleEndian.Uint32(rest[0:4]))
		r.State = BlockState(rest[4])
		n += 5
	default:
		return Record{}, 0, fmt.Errorf("%w: unknown record type %d", ErrCorruptJournal, r.Type)
	}
	if !r.State.valid() {
		return Record{}, 0, fmt.Errorf("%w: unknown block state %d", ErrCorruptJournal, int(r.State))
	}
	return r, n, nil
}

// AppendFrame encodes records as one journal frame (magic, payload
// length, payload, CRC32-C of everything before the CRC) onto log.
// Records are encoded directly into log — the header is reserved up
// front and its length field patched afterwards — so a flush performs
// no intermediate payload allocation and at most one log growth. The
// byte stream is identical to encoding the payload separately.
func AppendFrame(log []byte, recs []Record) []byte {
	start := len(log)
	log = binary.LittleEndian.AppendUint32(log, journalMagic)
	log = binary.LittleEndian.AppendUint32(log, 0) // payload length, patched below
	for _, r := range recs {
		log = appendRecord(log, r)
	}
	payload := len(log) - start - 8
	binary.LittleEndian.PutUint32(log[start+4:], uint32(payload))
	log = binary.LittleEndian.AppendUint32(log, crc32.Checksum(log[start:], crcTable))
	return log
}

// decodeJournalFrames parses a durable journal log into its records and
// the count of complete frames parsed — each frame was one metadata-page
// flush, so recovery charges one metadata-page read per frame. torn
// reports that the log ended in an incomplete or CRC-failing frame —
// the expected artifact of a power cut during a flush, whose records
// were never acknowledged and are silently discarded. A CRC-valid
// frame whose payload does not parse returns ErrCorruptJournal with
// the records of all preceding frames.
func decodeJournalFrames(log []byte) (recs []Record, frames int, torn bool, err error) {
	off := 0
	for off < len(log) {
		rest := log[off:]
		if len(rest) < 8 {
			return recs, frames, true, nil
		}
		if binary.LittleEndian.Uint32(rest[0:4]) != journalMagic {
			return recs, frames, true, nil
		}
		plen := int(binary.LittleEndian.Uint32(rest[4:8]))
		if plen > maxFramePayload || len(rest) < 8+plen+4 {
			return recs, frames, true, nil
		}
		sum := binary.LittleEndian.Uint32(rest[8+plen : 8+plen+4])
		if crc32.Checksum(rest[:8+plen], crcTable) != sum {
			return recs, frames, true, nil
		}
		payload := rest[8 : 8+plen]
		for len(payload) > 0 {
			r, n, perr := parseRecord(payload)
			if perr != nil {
				return recs, frames, false, fmt.Errorf("journal frame at byte %d: %w", off, perr)
			}
			recs = append(recs, r)
			payload = payload[n:]
		}
		frames++
		off += 8 + plen + 4
	}
	return recs, frames, false, nil
}

// ------------------------------------------------------------ checkpoint

const (
	checkpointMagic   = 0x464c434b // "FLCK"
	checkpointVersion = 1
	// maxCheckpointDim bounds the geometry a checkpoint may declare, so
	// the decoder never allocates unboundedly on fuzzed input.
	maxCheckpointDim = 1 << 28
)

// checkpointState is the decoded image of one checkpoint: the complete
// durable mapping state at a point in time.
type checkpointState struct {
	Seq           uint64
	LogicalPages  uint64
	Blocks        int
	PagesPerBlock int
	Retired       int
	L2P           []int64 // unmapped encoded as MaxUint64
	BlockState    []BlockState
	BlockPE       []int
	BlockUsed     []int
	Bad           []bool
	Spare         []int
}

// encodeCheckpoint serializes the FTL's durable mapping state.
func (f *FTL) encodeCheckpoint() []byte {
	c := f.cfg
	// Rough size hint: header + l2p + per-block arrays.
	buf := make([]byte, 0, 48+8*len(f.l2p)+10*c.Blocks)
	buf = binary.LittleEndian.AppendUint32(buf, checkpointMagic)
	buf = binary.LittleEndian.AppendUint32(buf, checkpointVersion)
	buf = binary.LittleEndian.AppendUint64(buf, f.seq)
	buf = binary.LittleEndian.AppendUint64(buf, c.LogicalPages)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Blocks))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.PagesPerBlock))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.retired))
	l2pAt := len(buf)
	for _, p := range f.l2p {
		if p == unmapped32 {
			buf = binary.LittleEndian.AppendUint64(buf, math.MaxUint64)
		} else {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(p))
		}
	}
	// An lpn whose rewrite has not yet programmed its new page still
	// lives on its old one: record that, not the transient unmapping.
	for _, m := range f.moving {
		if m.old != unmapped && f.l2p[m.lpn] == unmapped32 {
			binary.LittleEndian.PutUint64(buf[l2pAt+8*int(m.lpn):], uint64(m.old))
		}
	}
	for b := 0; b < c.Blocks; b++ {
		buf = append(buf, byte(f.blockState[b]))
	}
	for b := 0; b < c.Blocks; b++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.blockPE[b]))
	}
	for b := 0; b < c.Blocks; b++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.blockUsed[b]))
	}
	for b := 0; b < c.Blocks; b++ {
		if f.bad.Get(b) {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	// The spare bitset iterates ascending, matching the byte stream the
	// old ascending spare slice produced.
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.spare.Count()))
	f.spare.Range(func(s int) bool {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s))
		return true
	})
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	return buf
}

// DecodeCheckpoint parses a checkpoint blob. Like the journal decoder
// it never panics on arbitrary bytes: anything structurally invalid is
// ErrCorruptJournal.
func DecodeCheckpoint(data []byte) (*checkpointState, error) {
	const header = 4 + 4 + 8 + 8 + 4 + 4 + 4
	if len(data) < header+4 {
		return nil, fmt.Errorf("%w: checkpoint shorter than header", ErrCorruptJournal)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return nil, fmt.Errorf("%w: checkpoint CRC mismatch", ErrCorruptJournal)
	}
	if binary.LittleEndian.Uint32(body[0:4]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad checkpoint magic", ErrCorruptJournal)
	}
	if v := binary.LittleEndian.Uint32(body[4:8]); v != checkpointVersion {
		return nil, fmt.Errorf("%w: unsupported checkpoint version %d", ErrCorruptJournal, v)
	}
	st := &checkpointState{
		Seq:           binary.LittleEndian.Uint64(body[8:16]),
		LogicalPages:  binary.LittleEndian.Uint64(body[16:24]),
		Blocks:        int(binary.LittleEndian.Uint32(body[24:28])),
		PagesPerBlock: int(binary.LittleEndian.Uint32(body[28:32])),
		Retired:       int(binary.LittleEndian.Uint32(body[32:36])),
	}
	if st.LogicalPages > maxCheckpointDim || st.Blocks > maxCheckpointDim || st.Blocks < 0 {
		return nil, fmt.Errorf("%w: absurd checkpoint geometry", ErrCorruptJournal)
	}
	rest := body[header:]
	// Fixed-size section: l2p + state + pe + used + bad + spare count.
	need := 8*int(st.LogicalPages) + st.Blocks + 4*st.Blocks + 4*st.Blocks + st.Blocks + 4
	if len(rest) < need {
		return nil, fmt.Errorf("%w: checkpoint body short (%d < %d)", ErrCorruptJournal, len(rest), need)
	}
	st.L2P = make([]int64, st.LogicalPages)
	for i := range st.L2P {
		v := binary.LittleEndian.Uint64(rest[8*i:])
		if v == math.MaxUint64 {
			st.L2P[i] = unmapped
		} else {
			st.L2P[i] = int64(v)
		}
	}
	rest = rest[8*int(st.LogicalPages):]
	st.BlockState = make([]BlockState, st.Blocks)
	for b := 0; b < st.Blocks; b++ {
		s := BlockState(rest[b])
		if !s.valid() {
			return nil, fmt.Errorf("%w: unknown block state %d", ErrCorruptJournal, int(s))
		}
		st.BlockState[b] = s
	}
	rest = rest[st.Blocks:]
	st.BlockPE = make([]int, st.Blocks)
	for b := 0; b < st.Blocks; b++ {
		st.BlockPE[b] = int(binary.LittleEndian.Uint32(rest[4*b:]))
	}
	rest = rest[4*st.Blocks:]
	st.BlockUsed = make([]int, st.Blocks)
	for b := 0; b < st.Blocks; b++ {
		st.BlockUsed[b] = int(binary.LittleEndian.Uint32(rest[4*b:]))
	}
	rest = rest[4*st.Blocks:]
	st.Bad = make([]bool, st.Blocks)
	for b := 0; b < st.Blocks; b++ {
		st.Bad[b] = rest[b] != 0
	}
	rest = rest[st.Blocks:]
	nspare := int(binary.LittleEndian.Uint32(rest[0:4]))
	rest = rest[4:]
	if nspare < 0 || nspare > st.Blocks || len(rest) < 4*nspare {
		return nil, fmt.Errorf("%w: bad spare list length %d", ErrCorruptJournal, nspare)
	}
	st.Spare = make([]int, nspare)
	for i := 0; i < nspare; i++ {
		st.Spare[i] = int(binary.LittleEndian.Uint32(rest[4*i:]))
	}
	if len(rest) != 4*nspare {
		return nil, fmt.Errorf("%w: %d trailing checkpoint bytes", ErrCorruptJournal, len(rest)-4*nspare)
	}
	for b, s := range st.Spare {
		if s < 0 || s >= st.Blocks {
			return nil, fmt.Errorf("%w: spare %d out of range", ErrCorruptJournal, b)
		}
		// Every writer emits the spare pool in strictly ascending order
		// (it only ever shrinks from the top); anything else cannot be a
		// real image and would change meaning in the bitset-backed pool.
		if b > 0 && s <= st.Spare[b-1] {
			return nil, fmt.Errorf("%w: spare list not strictly ascending at entry %d", ErrCorruptJournal, b)
		}
	}
	return st, nil
}
