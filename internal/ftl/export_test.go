package ftl

// DecodeJournal is decodeJournalFrames without the frame count.
func DecodeJournal(log []byte) (recs []Record, torn bool, err error) {
	recs, _, torn, err = decodeJournalFrames(log)
	return recs, torn, err
}

// JournalBytes returns a copy of the durable journal log.
func (m *Media) JournalBytes() []byte {
	return append([]byte(nil), m.journal...)
}

// CheckpointBytes returns a copy of the last complete checkpoint blob.
func (m *Media) CheckpointBytes() []byte {
	return append([]byte(nil), m.checkpoint...)
}
