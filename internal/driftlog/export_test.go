package driftlog

// Accessors only tests read: a row by index, the attribute names, a
// forced segment rotation and the last background compaction failure.

// Entry reconstructs the i-th row in canonical (ingest-sequence) order.
// Each call re-derives the ordering; sweep with Each.
func (s *Store) Entry(i int) Entry {
	refs := s.orderedRows()
	ref := refs[i]
	sh := &s.shards[ref.shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.entryLocked(ref.row)
}

// Attributes returns the attribute names in first-seen order.
func (s *Store) Attributes() []string {
	s.attrMu.RLock()
	defer s.attrMu.RUnlock()
	return append([]string(nil), s.attrOrder...)
}

// Rotate seals the active segment and starts a new one; the append
// path rotates at SegmentBytes.
func (w *WAL) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.errLocked(); err != nil {
		return err
	}
	if err := w.rotateLocked(); err != nil {
		return w.failLocked(err)
	}
	w.maybeCompactLocked()
	return nil
}

// CompactionErr returns the last background compaction failure, if any
// (explicit Compact calls report their own errors; Close reports it).
func (w *WAL) CompactionErr() error {
	if err, ok := w.compactErr.Load().(error); ok {
		return err
	}
	return nil
}
