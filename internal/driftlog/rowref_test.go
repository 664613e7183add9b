package driftlog

import (
	"encoding/binary"
	"hash/crc32"
	"sort"
)

// Row-at-a-time reference implementations the differential tests compare
// the columnar ingest path against: an appender that walks each entry's
// attribute map under the shard lock, and tiers an attribute up the moment
// its values cross the threshold. It shares no code with appendColumns or
// tierUp beyond the store's own primitives (intern, setBit, dropBits), so
// agreement between the two is evidence, not tautology. The file also keeps
// the writer of the row-layout WAL record earlier versions wrote, which
// builds fuzz seeds replay must refuse.

// refAppendBatch ingests entries row by row with one lock acquisition per
// touched shard, preserving slice order in the store's sequence order.
func refAppendBatch(s *Store, entries []Entry) {
	if len(entries) == 0 {
		return
	}
	for _, e := range entries {
		refRegisterAttrs(s, e.Attrs)
		refObserveCardinality(s, e.Attrs)
	}
	base := s.seq.Add(int64(len(entries))) - int64(len(entries))
	type job struct {
		seq int64
		e   Entry
	}
	var jobs [numShards][]job
	for i, e := range entries {
		seq := base + int64(i)
		si := int(seq & shardMask)
		if dev, ok := e.Attrs[AttrDevice]; ok {
			si = int(hashString(dev) & shardMask)
		}
		jobs[si] = append(jobs[si], job{seq, e})
	}
	for si := range jobs {
		if len(jobs[si]) == 0 {
			continue
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		sketched := s.sketchedSet()
		for _, j := range jobs[si] {
			refAppendLocked(sh, j.seq, j.e, sketched)
		}
		sh.mu.Unlock()
	}
}

func refAppendLocked(sh *shard, seq int64, e Entry, sketched map[string]bool) {
	row := len(sh.times)
	t := e.Time.UnixNano()
	if row > 0 && t < sh.times[row-1] {
		sh.timeSorted = false
	}
	sh.seqs = append(sh.seqs, seq)
	sh.times = append(sh.times, t)
	sh.drift = append(sh.drift, e.Drift)
	if e.Drift {
		sh.driftBits = setBit(sh.driftBits, row)
	}
	sh.samples = append(sh.samples, e.SampleID)
	for name, val := range e.Attrs {
		col, ok := sh.cols[name]
		if !ok {
			col = newColumn(row)
			if sketched[name] {
				col.dropBits()
			}
			sh.cols[name] = col
			sh.order = append(sh.order, name)
		}
		id := col.intern(val)
		col.ids = append(col.ids, id)
		if !col.sketched {
			col.bits[id] = setBit(col.bits[id], row)
		}
	}
	// Backfill missing attributes for this row.
	for _, name := range sh.order {
		col := sh.cols[name]
		if len(col.ids) == row {
			col.ids = append(col.ids, 0)
		}
	}
}

// refRegisterAttrs records one entry's attribute names in the store-wide
// registry, fresh names sorted so discovery order is deterministic.
func refRegisterAttrs(s *Store, attrs map[string]string) {
	var fresh []string
	s.attrMu.Lock()
	for name := range attrs {
		if !s.attrSeen[name] {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		s.attrSeen[name] = true
		s.attrOrder = append(s.attrOrder, name)
	}
	s.attrMu.Unlock()
}

// refObserveCardinality records one entry's value sightings for attributes
// still on the exact tier and tiers up any attribute that crossed the
// threshold.
func refObserveCardinality(s *Store, attrs map[string]string) {
	var tier []string
	s.attrMu.Lock()
	sketched := s.sketchedSet()
	for name, val := range attrs {
		if sketched[name] {
			continue
		}
		vals := s.card[name]
		if vals == nil {
			vals = map[string]bool{}
			s.card[name] = vals
		}
		if !vals[val] {
			vals[val] = true
			if len(vals) > s.threshold {
				tier = append(tier, name)
			}
		}
	}
	s.attrMu.Unlock()
	sort.Strings(tier)
	for _, name := range tier {
		refTierUp(s, name)
	}
}

// refTierUp is tierUp without its locks: every column of the attribute
// drops its bitmaps and the set names it. Single-writer only.
func refTierUp(s *Store, attr string) {
	next := map[string]bool{attr: true}
	for k := range s.sketchedSet() {
		next[k] = true
	}
	for si := range s.shards {
		if c := s.shards[si].cols[attr]; c != nil {
			c.dropBits()
		}
	}
	s.sketchedPtr.Store(&next)
	delete(s.card, attr)
}

// appendWALFrameColumns appends one legacy framed record
// ([len][crc][payload]) to dst: record version 2, the batch row by row
// with each row's attributes in sorted name order, then the sample
// section. No product code writes this layout any more, and replay
// refuses it as corruption.
func appendWALFrameColumns(dst []byte, b *ColumnarBatch) []byte {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	p := len(dst)
	dst = append(dst, 2)
	rows := b.Rows()
	dst = binary.AppendUvarint(dst, uint64(rows))
	order := make([]int, len(b.Cols))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return b.Cols[order[i]].Name < b.Cols[order[j]].Name })
	for r := 0; r < rows; r++ {
		dst = binary.AppendVarint(dst, b.Times[r])
		var flags byte
		if b.Drift[r] {
			flags = 1
		}
		dst = append(dst, flags)
		dst = binary.AppendVarint(dst, b.SampleIDs[r])
		nattrs := 0
		for _, ci := range order {
			if b.Cols[ci].IDs[r] != 0 {
				nattrs++
			}
		}
		dst = binary.AppendUvarint(dst, uint64(nattrs))
		for _, ci := range order {
			col := &b.Cols[ci]
			id := col.IDs[r]
			if id == 0 {
				continue
			}
			dst = appendString(dst, col.Name)
			dst = appendString(dst, col.Dict[id])
		}
	}
	dst = appendSampleSection(dst, b.Samples)
	payload := dst[p:]
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[base+4:], crc32.Checksum(payload, castagnoli))
	return dst
}
