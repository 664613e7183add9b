package driftlog

import (
	"encoding/binary"
	"hash/crc32"
	"sort"
)

// Row-at-a-time reference implementations the differential tests compare
// the columnar ingest path against: an appender that walks each entry's
// attribute map under the shard lock, and a WAL frame encoder that reads
// row-form entries. Neither shares code with appendColumns or
// appendWALFrameColumns beyond the store's own primitives (intern, setBit,
// tierUp, the sketch feed), so agreement between the two is evidence, not
// tautology.

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
			refFeedRowLocked(s, sketched, j.e)
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
			col.sketched = sketched[name]
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
			if len(vals) > s.sk.cfg.Threshold {
				tier = append(tier, name)
			}
		}
	}
	s.attrMu.Unlock()
	sort.Strings(tier)
	for _, name := range tier {
		s.tierUp(name)
	}
}

// refFeedRowLocked feeds one just-appended row to the sketches in sorted
// attribute order. Caller holds the shard lock.
func refFeedRowLocked(s *Store, sketched map[string]bool, e Entry) {
	if len(sketched) == 0 || len(e.Attrs) == 0 {
		return
	}
	kvs := make([]attrKV, 0, len(e.Attrs))
	for name, val := range e.Attrs {
		kvs = append(kvs, attrKV{name, val})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].name < kvs[j].name })
	s.sk.feed(sketched, e.Time.UnixNano(), e.Drift, kvs)
}

// refAppendWALFrame encodes one framed WAL record from row-form entries.
func refAppendWALFrame(dst []byte, entries []Entry) []byte {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	p := len(dst)
	dst = append(dst, walRecordVersion)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	var keys []string
	for i := range entries {
		e := &entries[i]
		dst = binary.AppendVarint(dst, e.Time.UnixNano())
		var flags byte
		if e.Drift {
			flags = 1
		}
		dst = append(dst, flags)
		dst = binary.AppendVarint(dst, e.SampleID)
		keys = keys[:0]
		for k := range e.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		dst = binary.AppendUvarint(dst, uint64(len(keys)))
		for _, k := range keys {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
			v := e.Attrs[k]
			dst = binary.AppendUvarint(dst, uint64(len(v)))
			dst = append(dst, v...)
		}
	}
	payload := dst[p:]
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[base+4:], crc32.Checksum(payload, walCRC))
	return dst
}
