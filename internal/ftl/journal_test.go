package ftl

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Type: recProgram, Seq: 1, LPN: 7, PPN: 130, State: NormalState},
		{Type: recProgram, Seq: 2, LPN: 9, PPN: 131, State: ReducedState},
		{Type: recErase, Seq: 3, Block: 3, PE: 11},
		{Type: recRetire, Seq: 4, Block: 12},
		{Type: recAlloc, Seq: 5, Block: 4, State: ReducedState},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	want := sampleRecords()
	log := AppendFrame(nil, want[:3])
	log = AppendFrame(log, want[3:])
	got, torn, err := DecodeJournal(log)
	if err != nil || torn {
		t.Fatalf("decode: torn=%v err=%v", torn, err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestJournalTornTail(t *testing.T) {
	full := AppendFrame(nil, sampleRecords())
	for cut := 1; cut < len(full); cut++ {
		recs, torn, err := DecodeJournal(full[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !torn {
			t.Fatalf("cut %d: truncated frame not reported torn", cut)
		}
		if len(recs) != 0 {
			t.Fatalf("cut %d: %d records from a torn-only log", cut, len(recs))
		}
	}
	// A good frame followed by a torn one keeps the good frame's records.
	log := AppendFrame(nil, sampleRecords()[:2])
	log = append(log, AppendFrame(nil, sampleRecords()[2:])[:5]...)
	recs, torn, err := DecodeJournal(log)
	if err != nil || !torn || len(recs) != 2 {
		t.Fatalf("good+torn: recs=%d torn=%v err=%v", len(recs), torn, err)
	}
	// Trailing garbage (the torn-flush marker) is a torn tail too.
	recs, torn, err = DecodeJournal(append(AppendFrame(nil, sampleRecords()), 0x46))
	if err != nil || !torn || len(recs) != len(sampleRecords()) {
		t.Fatalf("good+garbage: recs=%d torn=%v err=%v", len(recs), torn, err)
	}
}

func TestJournalCorruptPayload(t *testing.T) {
	// A CRC-valid frame with an unknown record type is corruption, not a
	// torn tail: hand-build the frame around a bogus payload. Type 2 is
	// the unassigned byte between recProgram and recErase.
	for _, typ := range []byte{2, 99} {
		bogus := appendRecord(nil, Record{Type: recErase, Seq: 1, Block: 2})
		bogus[0] = typ
		var log []byte
		log = binary.LittleEndian.AppendUint32(log, journalMagic)
		log = binary.LittleEndian.AppendUint32(log, uint32(len(bogus)))
		log = append(log, bogus...)
		log = binary.LittleEndian.AppendUint32(log, crc32.Checksum(log, crcTable))
		_, _, err := DecodeJournal(log)
		if !errors.Is(err, ErrCorruptJournal) || !strings.Contains(err.Error(), "unknown record type") {
			t.Fatalf("record type %d: err=%v, want ErrCorruptJournal for an unknown type", typ, err)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := crashConfig()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range crashTrace(300, int(cfg.LogicalPages)) {
		if !op.migrate {
			f.Write(op.lpn, op.state)
		}
	}
	blob := f.encodeCheckpoint()
	st, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != f.seq || st.Retired != f.retired {
		t.Fatalf("seq/retired mismatch: %d/%d vs %d/%d", st.Seq, st.Retired, f.seq, f.retired)
	}
	for lpn := uint64(0); lpn < cfg.LogicalPages; lpn++ {
		if st.L2P[lpn] != f.mapOf(lpn) {
			t.Fatalf("l2p[%d]: %d != %d", lpn, st.L2P[lpn], f.mapOf(lpn))
		}
	}
	for b := 0; b < cfg.Blocks; b++ {
		if st.BlockUsed[b] != int(f.blockUsed[b]) || st.BlockState[b] != f.blockState[b] ||
			st.BlockPE[b] != int(f.blockPE[b]) || st.Bad[b] != f.bad.Get(b) {
			t.Fatalf("block %d state mismatch", b)
		}
	}
	// Every single-bit-of-a-byte corruption is caught by the CRC.
	for i := 0; i < len(blob); i += 37 {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x10
		if _, err := DecodeCheckpoint(mut); !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("flip at %d: err=%v, want ErrCorruptJournal", i, err)
		}
	}
	if _, err := DecodeCheckpoint(nil); !errors.Is(err, ErrCorruptJournal) {
		t.Fatal("nil checkpoint must be corrupt")
	}
}
