package ftl

// Power-loss recovery (DESIGN.md §10). Recover rebuilds a working FTL
// from the durable media image alone — the last complete checkpoint,
// the journal frames flushed after it, and an OOB scan of every page
// the journal does not cover. The contract, enforced by the exhaustive
// crash-point tests:
//
//   - zero acknowledged-write loss: every FTL call that returned nil
//     before the cut is reflected in the recovered mapping;
//   - OOB consistency: every recovered mapping points at a page whose
//     OOB carries that LPN with a valid CRC;
//   - idempotence: recovering an already-recovered image reproduces the
//     exact same state, and a second power cut *inside* Recover leaves
//     an image that still recovers to that state.
//
// The ordering argument behind the OOB scan: journal records are
// buffered and flushed strictly FIFO, so every flushed record has a
// lower sequence number than every lost (buffered) one. Erases
// flush synchronously. A page program whose record was flushed
// is inside the journal-known fill level of its block; one whose record
// was lost sits above it, where the scan finds its OOB — and all such
// candidates carry sequence numbers above everything replayed, so
// applying them in ascending order replays the lost tail of the
// mutation history exactly.

import (
	"fmt"
	"sort"

	"flexlevel/internal/fault"
)

// RecoveryReport itemizes the work one Recover pass performed, so the
// SSD layer can charge recovery time and the experiments can report it.
type RecoveryReport struct {
	CheckpointReadPages  int // metadata pages read to load the checkpoint
	JournalFrames        int // journal frames (metadata pages) read and replayed
	RecordsReplayed      int // journal records applied over the checkpoint
	OOBReads             int // per-page OOB reads during the scan
	TornPages            int // written-but-CRC-invalid pages detected and discarded
	CheckpointWritePages int // pages of the fresh checkpoint written on success
}

// TotalReads returns the read operations recovery performed — the
// dominant component of recovery latency.
func (r RecoveryReport) TotalReads() int {
	return r.CheckpointReadPages + r.JournalFrames + r.OOBReads
}

// Recover rebuilds an FTL from a crashed device's media image. cfg must
// match the geometry the image was written under and have the journal
// enabled. faultFn (may be nil) becomes the recovered FTL's fault hook
// and is consulted for the metadata programs recovery itself performs,
// so a second power cut during recovery is injectable; in that case
// Recover returns ErrPowerLoss and the image is untouched (the fresh
// checkpoint only replaces the old one once fully written).
func Recover(cfg Config, m *Media, faultFn func(op fault.Op, block, pe int) bool) (*FTL, RecoveryReport, error) {
	var rep RecoveryReport
	if err := cfg.Validate(); err != nil {
		return nil, rep, err
	}
	if !cfg.Journal.Enabled {
		return nil, rep, fmt.Errorf("ftl: recover needs an enabled journal")
	}
	if m == nil {
		return nil, rep, fmt.Errorf("ftl: recover of nil media")
	}
	phys := cfg.PagesPerBlock * cfg.Blocks
	if m.pagesPerBlock != cfg.PagesPerBlock || m.phys != phys {
		return nil, rep, fmt.Errorf("ftl: media geometry (%d pages, %d pages/block) does not match config (%d pages, %d pages/block)",
			m.phys, m.pagesPerBlock, phys, cfg.PagesPerBlock)
	}

	f, err := New(cfg)
	if err != nil {
		return nil, rep, err
	}
	f.media = m
	f.Fault = faultFn

	// 1. Checkpoint: the replay baseline. A device that died before its
	// first checkpoint recovers from the pristine initial state.
	if len(m.checkpoint) > 0 {
		st, err := DecodeCheckpoint(m.checkpoint)
		if err != nil {
			return nil, rep, err
		}
		if st.LogicalPages != cfg.LogicalPages || st.Blocks != cfg.Blocks || st.PagesPerBlock != cfg.PagesPerBlock {
			return nil, rep, fmt.Errorf("%w: checkpoint geometry mismatch", ErrCorruptJournal)
		}
		for lpn, p := range st.L2P {
			if p != unmapped && (p < 0 || p >= int64(phys)) {
				return nil, rep, fmt.Errorf("%w: checkpoint maps lpn %d to ppn %d out of range", ErrCorruptJournal, lpn, p)
			}
		}
		for b, u := range st.BlockUsed {
			if u < 0 || u > cfg.PagesPerBlock {
				return nil, rep, fmt.Errorf("%w: checkpoint block %d used %d out of range", ErrCorruptJournal, b, u)
			}
			if st.BlockPE[b] > 1<<31-1 {
				return nil, rep, fmt.Errorf("%w: checkpoint block %d P/E %d out of range", ErrCorruptJournal, b, st.BlockPE[b])
			}
		}
		rep.CheckpointReadPages = (len(m.checkpoint) + metaPageBytes - 1) / metaPageBytes
		f.seq = st.Seq
		f.retired = st.Retired
		for i, p := range st.L2P {
			if p == unmapped {
				f.l2p[i] = unmapped32
			} else {
				f.l2p[i] = int32(p)
			}
		}
		copy(f.blockState, st.BlockState)
		for b := range st.BlockPE {
			f.blockPE[b] = int32(st.BlockPE[b])
			f.blockUsed[b] = int32(st.BlockUsed[b])
		}
		f.bad.Reset()
		for b, bad := range st.Bad {
			if bad {
				f.bad.Set(b)
			}
		}
		f.spare.Reset()
		for _, s := range st.Spare {
			f.spare.Set(s)
		}
	}

	// 2. Journal replay: mutations flushed after the checkpoint.
	recs, frames, _, err := decodeJournalFrames(m.journal)
	if err != nil {
		return nil, rep, err
	}
	rep.JournalFrames = frames
	base := f.seq
	for _, r := range recs {
		if r.Seq <= base {
			continue // already inside the checkpoint
		}
		if r.Seq > f.seq {
			f.seq = r.Seq
		}
		switch r.Type {
		case recProgram:
			if r.PPN < 0 || r.PPN >= int64(phys) || r.LPN >= cfg.LogicalPages {
				return nil, rep, fmt.Errorf("%w: program record lpn %d ppn %d out of range", ErrCorruptJournal, r.LPN, r.PPN)
			}
			b, page := f.blockOf(r.PPN), int(r.PPN)%cfg.PagesPerBlock
			f.l2p[r.LPN] = int32(r.PPN)
			f.blockState[b] = r.State
			if int32(page+1) > f.blockUsed[b] {
				f.blockUsed[b] = int32(page + 1)
			}
		case recErase:
			b := int(r.Block)
			if b < 0 || b >= cfg.Blocks || r.PE < 0 {
				return nil, rep, fmt.Errorf("%w: erase record block %d pe %d out of range", ErrCorruptJournal, r.Block, r.PE)
			}
			f.blockUsed[b] = 0
			f.blockPE[b] = r.PE
		case recRetire:
			b := int(r.Block)
			if b < 0 || b >= cfg.Blocks {
				return nil, rep, fmt.Errorf("%w: retire record block %d out of range", ErrCorruptJournal, r.Block)
			}
			f.bad.Set(b)
			f.retired++
			if s, ok := f.spare.Max(); ok {
				f.spare.Clear(s) // the spare re-enters service (free by derivation)
			}
		case recAlloc:
			b := int(r.Block)
			if b < 0 || b >= cfg.Blocks {
				return nil, rep, fmt.Errorf("%w: alloc record block %d out of range", ErrCorruptJournal, r.Block)
			}
			f.blockState[b] = r.State
			f.blockUsed[b] = 0
			f.spare.Clear(b) // a checkpointed spare may have been promoted since
		default:
			return nil, rep, fmt.Errorf("%w: unreplayable record type %d", ErrCorruptJournal, r.Type)
		}
		rep.RecordsReplayed++
	}

	// 3. OOB scan: pages above each block's journal-known fill level are
	// programs whose records died in the RAM buffer. Their OOB is the
	// only witness — CRC-valid ones become mapping candidates, torn ones
	// are discarded (they consume the page slot either way).
	type candidate struct {
		ppn int64
		oob OOB
	}
	var cands []candidate
	for b := 0; b < cfg.Blocks; b++ {
		for page := int(f.blockUsed[b]); page < cfg.PagesPerBlock; page++ {
			p := f.ppn(b, page)
			oob := m.PageOOB(p)
			rep.OOBReads++
			if !oob.Written {
				break // erased: nothing was ever programmed past here
			}
			f.blockUsed[b] = int32(page + 1)
			if !oob.Valid || oob.LPN >= cfg.LogicalPages {
				rep.TornPages++
				continue
			}
			cands = append(cands, candidate{ppn: p, oob: oob})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].oob.Seq < cands[j].oob.Seq })
	for _, c := range cands {
		b := f.blockOf(c.ppn)
		f.l2p[c.oob.LPN] = int32(c.ppn)
		f.blockState[b] = c.oob.State
		if c.oob.Seq > f.seq {
			f.seq = c.oob.Seq
		}
	}

	// A spare that carries data was promoted by a retirement whose
	// record died in the buffer; it is in service now either way.
	var dropped []int
	f.spare.Range(func(s int) bool {
		if f.blockUsed[s] != 0 || f.bad.Get(s) {
			dropped = append(dropped, s)
		}
		return true
	})
	for _, s := range dropped {
		f.spare.Clear(s)
	}

	// 4. Derive the volatile structures from the rebuilt mapping. The
	// reverse map is transient here — a journaled FTL derives it from
	// the OOB at runtime (pageLPN) — but the pass still needs it to
	// catch double-mapped physical pages in corrupt metadata.
	owner := make([]int32, phys)
	for i := range owner {
		owner[i] = unmapped32
	}
	for b := range f.blockValid {
		f.blockValid[b] = 0
	}
	for lpn, p := range f.l2p {
		if p == unmapped32 {
			continue
		}
		if owner[p] != unmapped32 {
			return nil, rep, fmt.Errorf("%w: lpns %d and %d both map to ppn %d", ErrCorruptJournal, owner[p], lpn, p)
		}
		owner[p] = int32(lpn)
		f.blockValid[f.blockOf(int64(p))]++
	}
	f.free, f.freePE = f.free[:0], f.freePE[:0]
	for b := 0; b < cfg.Blocks; b++ {
		if !f.bad.Get(b) && !f.spare.Get(b) && f.blockUsed[b] == 0 {
			f.pushFree(b)
		}
	}
	// One partially-filled block per pool resumes as the active block —
	// the most recently written one. Any others (strays from recovered
	// crashes) are sealed so the collector can reclaim them.
	f.active = [numStates]*activeBlock{}
	for _, state := range []BlockState{NormalState, ReducedState} {
		usable := f.usablePages(state)
		best, bestSeq := -1, uint64(0)
		for b := 0; b < cfg.Blocks; b++ {
			if f.bad.Get(b) || f.spare.Get(b) || f.blockState[b] != state {
				continue
			}
			if f.blockUsed[b] == 0 || int(f.blockUsed[b]) >= usable {
				continue
			}
			var maxSeq uint64
			for page := 0; page < int(f.blockUsed[b]); page++ {
				if oob := m.PageOOB(f.ppn(b, page)); oob.Valid && oob.Seq > maxSeq {
					maxSeq = oob.Seq
				}
			}
			if best < 0 || maxSeq > bestSeq {
				best, bestSeq = b, maxSeq
			}
		}
		if best < 0 {
			continue
		}
		f.active[state] = &activeBlock{block: best, nextPage: int(f.blockUsed[best])}
		for b := 0; b < cfg.Blocks; b++ {
			if b != best && !f.bad.Get(b) && !f.spare.Get(b) && f.blockState[b] == state &&
				f.blockUsed[b] > 0 && int(f.blockUsed[b]) < usable {
				f.blockUsed[b] = int32(usable)
			}
		}
	}
	f.checkDegraded()

	// 5. Make the recovered state durable. The old checkpoint+journal
	// stay in place until the new checkpoint completes, so a power cut
	// anywhere in here (including the metadata programs below) leaves
	// an image that recovers to this exact state.
	if err := f.writeCheckpoint(nil); err != nil {
		return nil, rep, err
	}
	rep.CheckpointWritePages = (len(m.checkpoint) + metaPageBytes - 1) / metaPageBytes
	return f, rep, nil
}
