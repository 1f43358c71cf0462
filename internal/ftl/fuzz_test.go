package ftl

import (
	"errors"
	"slices"
	"testing"

	"flexlevel/internal/fault"
)

// FuzzJournalReplay feeds arbitrary bytes to the journal and checkpoint
// decoders and, when they decode, replays them through Recover. The
// contract: never panic, never allocate unboundedly, and either replay
// cleanly, report a torn tail, or return the typed ErrCorruptJournal.
func FuzzJournalReplay(f *testing.F) {
	// Seed corpus: real images from a crashed workload, plus truncations
	// and bit flips of them, plus degenerate frames. The first cut tears
	// a journal flush, so its journal ends in a torn frame.
	cfg := crashConfig()
	crashed := crashedFTL(f, cfg, 907)
	journal, checkpoint := crashed.Media().JournalBytes(), crashed.Media().CheckpointBytes()
	if _, torn, err := DecodeJournal(journal); err != nil || !torn {
		f.Fatalf("torn-flush seed: torn %v, err %v; want a torn tail", torn, err)
	}
	f.Add(journal, checkpoint)
	f.Add(AppendFrame(nil, sampleRecords()), []byte{})
	if len(journal) > 4 {
		flip := append([]byte(nil), journal...)
		flip[len(flip)/2] ^= 0x40
		f.Add(flip, checkpoint)
		f.Add(journal[:len(journal)/3], checkpoint)
	}
	if len(checkpoint) > 4 {
		flip := append([]byte(nil), checkpoint...)
		flip[17] ^= 0x01
		f.Add(journal, flip)
		f.Add(journal, checkpoint[:len(checkpoint)-9])
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0x31, 0x4a, 0x4c, 0x46, 0xff, 0xff, 0xff, 0x7f}, []byte{0x4b, 0x43, 0x4c, 0x46})
	// This cut lands after several garbage-collection runs, with erase
	// records in the live journal.
	gc := crashedFTL(f, cfg, 1550)
	recs, _, err := DecodeJournal(gc.Media().JournalBytes())
	if err != nil {
		f.Fatal(err)
	}
	erased := slices.ContainsFunc(recs, func(r Record) bool { return r.Type == recErase })
	if gc.Stats().GCPrograms == 0 || !erased {
		f.Fatalf("GC seed: %d GC programs before the cut, erase record in the journal %v; want both",
			gc.Stats().GCPrograms, erased)
	}
	f.Add(gc.Media().JournalBytes(), gc.Media().CheckpointBytes())

	f.Fuzz(func(t *testing.T, jbytes, cbytes []byte) {
		recs, torn, err := DecodeJournal(jbytes)
		if err != nil && !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("journal decoder returned untyped error: %v", err)
		}
		if err != nil && torn {
			t.Fatal("a log cannot be both corrupt and merely torn")
		}
		_ = recs
		if _, err := DecodeCheckpoint(cbytes); err != nil && !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("checkpoint decoder returned untyped error: %v", err)
		}
		// Full recovery over a synthetic media image carrying the fuzzed
		// bytes: must return a working FTL or a typed error, never panic.
		m := newMedia(cfg)
		m.journal = jbytes
		m.checkpoint = cbytes
		rf, _, err := Recover(cfg, m, nil)
		if err != nil {
			if !errors.Is(err, ErrCorruptJournal) {
				t.Fatalf("recover returned untyped error: %v", err)
			}
			return
		}
		if rf.dead || rf.Media() == nil {
			t.Fatal("recovered FTL unusable")
		}
	})
}

// crashedFTL runs the crash trace on cfg until a scripted power loss at
// media op cut and returns the dead FTL, whose media holds the journal
// and checkpoint images recovery would read.
func crashedFTL(f *testing.F, cfg Config, cut int64) *FTL {
	ftl, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	inj, err := fault.New(fault.Config{
		Script: append(baseScript(), fault.ScriptEvent{Op: fault.PowerLoss, Index: cut}),
	})
	if err != nil {
		f.Fatal(err)
	}
	ftl.Fault = inj.Fails
	for _, op := range crashTrace(crashTraceOps, int(cfg.LogicalPages)) {
		if ftl.dead {
			break
		}
		switch {
		case !op.migrate:
			ftl.Write(op.lpn, op.state)
		case ftl.Mapped(op.lpn):
			ftl.Migrate(op.lpn, op.state)
		}
	}
	if !ftl.dead {
		f.Fatalf("no power loss at media op %d", cut)
	}
	return ftl
}
