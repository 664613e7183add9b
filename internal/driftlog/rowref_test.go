package driftlog

import (
	"encoding/binary"
	"hash/crc32"
	"sort"
)

// Row-at-a-time reference implementations the differential tests compare
// the columnar ingest path against: an appender that interns each entry's
// values one at a time, tiers an attribute up the moment its dictionary
// crosses the threshold, and walks each entry's attribute map under the shard
// lock. It shares no code with appendColumns, intern or tierUp beyond the
// store's own primitives (column.add, setBit), so agreement between the two
// is evidence, not tautology. The file also keeps the writer of the
// row-layout WAL record earlier versions wrote, which builds fuzz seeds
// replay must refuse.

// refAppendBatch ingests entries row by row with one lock acquisition per
// touched shard, preserving slice order in the store's sequence order.
func refAppendBatch(s *Store, entries []Entry) {
	if len(entries) == 0 {
		return
	}
	ids := make([]map[string]uint32, len(entries))
	for i, e := range entries {
		refRegisterAttrs(s, e.Attrs)
		ids[i] = refIntern(s, e.Attrs)
	}
	pos := map[string]int{}
	s.dictMu.RLock()
	for name, d := range s.dicts {
		pos[name] = d.pos
	}
	s.dictMu.RUnlock()
	base := s.seq.Add(int64(len(entries))) - int64(len(entries))
	type job struct {
		seq int64
		e   Entry
		ids map[string]uint32
	}
	var jobs [numShards][]job
	for i, e := range entries {
		seq := base + int64(i)
		si := int(seq & shardMask)
		if dev, ok := e.Attrs[AttrDevice]; ok {
			si = int(hashString(dev) & shardMask)
		}
		jobs[si] = append(jobs[si], job{seq, e, ids[i]})
	}
	for si := range jobs {
		if len(jobs[si]) == 0 {
			continue
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		tiered := s.tieredSet()
		for _, j := range jobs[si] {
			refAppendLocked(sh, j.seq, j.e, j.ids, pos, tiered)
		}
		sh.mu.Unlock()
	}
}

// refAppendLocked appends one entry whose values' store ids are ids and
// whose attributes' positions are pos.
func refAppendLocked(sh *shard, seq int64, e Entry, ids map[string]uint32, pos map[string]int, tiered map[string]bool) {
	row := len(sh.times)
	t := e.Time.UnixNano()
	sh.noteTime(t)
	sh.seqs = append(sh.seqs, seq)
	sh.times = append(sh.times, t)
	sh.drift = append(sh.drift, e.Drift)
	if e.Drift {
		sh.driftBits = setBit(sh.driftBits, row)
	}
	sh.samples = append(sh.samples, e.SampleID)
	for name := range e.Attrs {
		col, ok := sh.cols[name]
		if !ok {
			col = &column{pos: pos[name], ids: make([]uint32, row), tiered: tiered[name]}
			sh.cols[name] = col
			sh.order = append(sh.order, name)
		}
		col.add(ids[name])
	}
	// Backfill missing attributes for this row.
	for _, name := range sh.order {
		col := sh.cols[name]
		if len(col.ids) == row {
			col.add(0)
		}
	}
}

// refRegisterAttrs records one entry's attribute names in the store-wide
// registry, fresh names sorted so discovery order is deterministic, each
// with an empty dictionary.
func refRegisterAttrs(s *Store, attrs map[string]string) {
	var fresh []string
	s.dictMu.Lock()
	for name := range attrs {
		if s.dicts[name] == nil {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		s.dicts[name] = &dict{pos: len(s.attrOrder), vals: []string{""}, index: map[string]uint32{}}
		s.attrOrder = append(s.attrOrder, name)
	}
	s.dictMu.Unlock()
}

// refIntern interns one entry's values in the store's dictionaries, returning
// their ids, and tiers up every attribute still on the bitmaps whose
// dictionary crossed the threshold.
func refIntern(s *Store, attrs map[string]string) map[string]uint32 {
	ids := make(map[string]uint32, len(attrs))
	var tier []string
	s.dictMu.Lock()
	tiered := s.tieredSet()
	for name, val := range attrs {
		d := s.dicts[name]
		id, ok := d.index[val]
		if !ok {
			id = uint32(len(d.vals))
			d.vals = append(d.vals, val)
			d.index[val] = id
			if !tiered[name] && len(d.vals)-1 > s.threshold {
				tier = append(tier, name)
			}
		}
		ids[name] = id
	}
	s.dictMu.Unlock()
	sort.Strings(tier)
	for _, name := range tier {
		refTierUp(s, name)
	}
	return ids
}

// refTierUp is tierUp without its locks: every column of the attribute is
// replaced by one with its ids, rebuilt row by row with no bitmaps, and the
// set names it. Single-writer only.
func refTierUp(s *Store, attr string) {
	next := map[string]bool{attr: true}
	for k := range s.tieredSet() {
		next[k] = true
	}
	for si := range s.shards {
		if c := s.shards[si].cols[attr]; c != nil {
			nc := &column{pos: c.pos, tiered: true}
			for _, id := range c.ids {
				nc.add(id)
			}
			s.shards[si].cols[attr] = nc
		}
	}
	s.tieredPtr.Store(&next)
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
