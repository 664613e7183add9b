package driftlog

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"
)

// persistHeader guards against loading foreign files.
const persistHeader = "nazar-driftlog-v1"

// wireEntry is the on-disk representation of one row. The format predates
// sharding and must not change with it: rows are written in canonical
// (ingest-sequence) order, exactly as the unsharded store laid them out.
// Sample, the row's uploaded vector, was added later: gob leaves it nil
// when decoding files written before it, and omits it for unsampled rows.
type wireEntry struct {
	TimeNanos int64
	Drift     bool
	SampleID  int64
	Attrs     map[string]string
	Sample    []float64
}

// WriteTo streams the full log to w (header + gob-encoded rows) in
// canonical row order. Each shard is read-locked only while its rows are
// collected; concurrent appends to other shards proceed.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	type orderedEntry struct {
		seq int64
		we  wireEntry
	}
	var rows []orderedEntry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		k := 0 // next entry of sh.sampleRows
		for r := range sh.times {
			we := wireEntry{
				TimeNanos: sh.times[r],
				Drift:     sh.drift[r],
				SampleID:  sh.samples[r],
				Attrs:     map[string]string{},
			}
			if k < len(sh.sampleRows) && sh.sampleRows[k] == r {
				we.Sample = sh.sampleVecs[k]
				k++
			}
			for _, name := range sh.order {
				col := sh.cols[name]
				if id := col.ids[r]; id != 0 {
					we.Attrs[name] = col.dict[id]
				}
			}
			rows = append(rows, orderedEntry{seq: sh.seqs[r], we: we})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].seq < rows[b].seq })
	out := make([]wireEntry, len(rows))
	for i := range rows {
		out[i] = rows[i].we
	}
	if err := writeChunk(w, out); err != nil {
		return 0, err
	}
	return int64(len(rows)), nil
}

// writeChunk writes rows, in order, in the WriteTo format: the header
// line, then the gob-encoded row count and rows.
func writeChunk(w io.Writer, rows []wireEntry) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, persistHeader); err != nil {
		return err
	}
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(len(rows)); err != nil {
		return fmt.Errorf("driftlog: encode count: %w", err)
	}
	for i := range rows {
		if err := enc.Encode(rows[i]); err != nil {
			return fmt.Errorf("driftlog: encode row %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// appendWireEntries appends row-form rows and their sample column (nil,
// or one vector or nil per row) as snapshot rows.
func appendWireEntries(dst []wireEntry, entries []Entry, samples [][]float64) []wireEntry {
	for i, e := range entries {
		we := wireEntry{TimeNanos: e.Time.UnixNano(), Drift: e.Drift, SampleID: e.SampleID, Attrs: e.Attrs}
		if samples != nil {
			we.Sample = samples[i]
		}
		dst = append(dst, we)
	}
	return dst
}

// ReadFrom appends all rows from r (written by WriteTo) to the store.
// Rows are ingested in batches so restoring a large log takes one lock
// acquisition per shard per batch rather than per row.
func (s *Store) ReadFrom(r io.Reader) (int64, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("driftlog: read header: %w", err)
	}
	if header != persistHeader+"\n" {
		return 0, fmt.Errorf("driftlog: bad header %q", header)
	}
	dec := gob.NewDecoder(br)
	var n int
	if err := dec.Decode(&n); err != nil {
		return 0, fmt.Errorf("driftlog: decode count: %w", err)
	}
	if n < 0 {
		return 0, fmt.Errorf("driftlog: corrupt file: negative row count %d", n)
	}
	const batchSize = 4096
	batch := make([]Entry, 0, min(n, batchSize))
	samples := make([][]float64, 0, cap(batch)) // parallel to batch
	flush := func() {
		s.appendRows(batch, samples)
		batch, samples = batch[:0], samples[:0]
	}
	for i := 0; i < n; i++ {
		var we wireEntry
		if err := dec.Decode(&we); err != nil {
			flush() // rows 0..i-1
			return int64(i), fmt.Errorf("driftlog: decode row %d of %d (truncated or corrupt snapshot): %w", i, n, err)
		}
		samples = append(samples, we.Sample)
		batch = append(batch, Entry{
			Time:     time.Unix(0, we.TimeNanos).UTC(),
			Drift:    we.Drift,
			SampleID: we.SampleID,
			Attrs:    we.Attrs,
		})
		if len(batch) == batchSize {
			flush()
		}
	}
	flush()
	return int64(n), nil
}

// Compact drops every row with a timestamp before cutoff, returning how
// many rows were removed. Dictionary encodings are rebuilt per shard, so
// value IDs for vanished attributes do not leak. Outstanding Views keep
// reading their pinned snapshots (memory-safe) but no longer reflect the
// store; create views after compaction.
func (s *Store) Compact(cutoff time.Time) int {
	limit := cutoff.UnixNano()
	removed := 0
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		keep := make([]int, 0, len(sh.times))
		for i, t := range sh.times {
			if t >= limit {
				keep = append(keep, i)
			}
		}
		dropped := len(sh.times) - len(keep)
		if dropped == 0 {
			sh.mu.Unlock()
			continue
		}
		removed += dropped
		newSeqs := make([]int64, len(keep))
		newTimes := make([]int64, len(keep))
		newDrift := make([]bool, len(keep))
		newSamples := make([]int64, len(keep))
		newCols := make(map[string]*column, len(sh.cols))
		for _, name := range sh.order {
			newCols[name] = newColumn(0)
		}
		var newDriftBits []uint64
		var newSampleRows []int
		var newSampleVecs [][]float64
		k := 0 // next entry of sh.sampleRows
		for ni, oi := range keep {
			for k < len(sh.sampleRows) && sh.sampleRows[k] < oi {
				k++ // a dropped row's vector goes with it
			}
			if k < len(sh.sampleRows) && sh.sampleRows[k] == oi {
				newSampleRows = append(newSampleRows, ni)
				newSampleVecs = append(newSampleVecs, sh.sampleVecs[k])
			}
			newSeqs[ni] = sh.seqs[oi]
			newTimes[ni] = sh.times[oi]
			newDrift[ni] = sh.drift[oi]
			if sh.drift[oi] {
				newDriftBits = setBit(newDriftBits, ni)
			}
			newSamples[ni] = sh.samples[oi]
			for _, name := range sh.order {
				old := sh.cols[name]
				nc := newCols[name]
				if id := old.ids[oi]; id != 0 {
					nid := nc.intern(old.dict[id])
					nc.ids = append(nc.ids, nid)
					nc.bits[nid] = setBit(nc.bits[nid], ni)
				} else {
					nc.ids = append(nc.ids, 0)
				}
			}
		}
		sh.seqs, sh.times, sh.drift, sh.samples = newSeqs, newTimes, newDrift, newSamples
		sh.sampleRows, sh.sampleVecs = newSampleRows, newSampleVecs
		if len(newTimes) > 0 {
			sh.minTime = slices.Min(newTimes) // maxTime is a kept row's: only older rows drop
		}
		sh.driftBits = newDriftBits
		sh.cols = newCols
		sh.mu.Unlock()
	}
	// Rebuild the sketch tier wholesale: compaction dropped rows the
	// sketches still count (and rebuilt bitmaps for sketched columns), so
	// replay the survivors with appends gated out — the same protocol as
	// tier-up. Sketched attributes stay sticky.
	if removed > 0 {
		s.sk.tierMu.Lock()
		if sketched := s.sketchedSet(); len(sketched) > 0 {
			s.rebuildSketches(sketched)
		}
		s.sk.tierMu.Unlock()
	}
	if removed > 0 {
		// Row indices shifted: invalidate watermark-keyed caches.
		s.compactions.Add(1)
	}
	s.compacted.Add(int64(removed))
	return removed
}

// Compactions counts Compact calls that removed rows — the generation
// component of any cache keyed on per-shard row watermarks (compaction
// renumbers rows, so watermarks from an earlier generation are void).
func (s *Store) Compactions() int64 {
	return s.compactions.Load()
}

// SaveFile atomically and durably writes the log to path: temp file,
// fsync, rename, directory fsync. Without the fsync before the rename a
// power cut can leave path pointing at a zero-length or partial file —
// the classic rename-without-sync hole.
func (s *Store) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("driftlog: save: %w", err)
	}
	if _, err := s.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("driftlog: save sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("driftlog: save close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("driftlog: save rename: %w", err)
	}
	return syncDir(dirOf(path))
}

// LoadFile appends all rows stored at path.
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("driftlog: load: %w", err)
	}
	defer f.Close()
	_, err = s.ReadFrom(f)
	return err
}
