package driftlog

import (
	"encoding/binary"
	"hash/crc32"
	"sort"
)

// Row-at-a-time reference implementations the differential tests compare
// the columnar ingest path against: an appender that walks each entry's
// attribute map under the shard lock and feeds the sketches one row, one
// key, one lock round trip at a time (refFeed / refAdd — the sketch feed as
// it shipped before the batch feed), and a WAL frame encoder that reads
// row-form entries. Neither shares code with appendColumns, feedBatch or
// appendWALFrameColumns beyond the store's own primitives (intern, setBit,
// the rings' bucket lookup and fold), so agreement between the two
// is evidence, not tautology.

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
		refTierUp(s, name)
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
	refFeed(s.sk, sketched, e.Time.UnixNano(), e.Drift, kvs)
}

// attrKV is one (attribute, value) of a row being fed; refFeed requires the
// slice sorted by name so Space-Saving offer order — the only
// order-sensitive operation — is deterministic per row.
type attrKV struct{ name, val string }

// refFeed records one row into the sketch layer: each sketched attribute's
// value ring, plus the pair ring for every pair with at least one sketched
// side.
func refFeed(sk *sketchIndex, sketched map[string]bool, t int64, drifted bool, kvs []attrKV) {
	any := false
	for _, kv := range kvs {
		if sketched[kv.name] {
			any = true
			break
		}
	}
	if !any {
		return
	}
	for _, kv := range kvs {
		if sketched[kv.name] {
			refAdd(sk.attr(kv.name), kv.val, t, drifted)
		}
	}
	for i := 0; i < len(kvs); i++ {
		for j := i + 1; j < len(kvs); j++ {
			if sketched[kvs[i].name] || sketched[kvs[j].name] {
				refAdd(sk.pairRing(), pairSketchKey(kvs[i].name, kvs[i].val, kvs[j].name, kvs[j].val), t, drifted)
			}
		}
	}
}

// refAdd feeds one occurrence to a ring.
func refAdd(as *attrSketch, key string, t int64, drifted bool) {
	aligned := alignDown(t, as.bucketNanos)
	as.mu.Lock()
	b := as.findLocked(aligned)
	if b == nil {
		b = as.insertLocked(aligned)
	}
	if b == as.rest {
		as.lowerRestLow(aligned)
	}
	b.cm.Add(key, drifted)
	b.adds.Add(1)
	as.mu.Unlock()
	as.hh.Offer(key, 1)
}

// refTierUp is tierUp with the replay done row by row, so no row of a
// reference store ever passes through the batch feed. Single-writer only
// (it takes no lock).
func refTierUp(s *Store, attr string) {
	next := map[string]bool{attr: true}
	for k := range s.sketchedSet() {
		next[k] = true
	}
	for si := range s.shards {
		for n, c := range s.shards[si].cols {
			if next[n] && !c.sketched {
				c.sketched = true
				for id := range c.bits {
					c.bits[id] = nil
				}
			}
		}
	}
	s.sk.install(refReplay(s, next))
	s.sketchedPtr.Store(&next)
	delete(s.card, attr)
}

// refReplay is the replay of rebuildSketches row by row: every current row,
// in canonical order (shard-major, row order), fed through refFeed into
// fresh rings.
func refReplay(s *Store, sketched map[string]bool) *sketchIndex {
	fresh := newSketchIndex(s.sk.cfg)
	for si := range s.shards {
		sh := &s.shards[si]
		names := append([]string(nil), sh.order...)
		sort.Strings(names)
		for r := range sh.times {
			var kvs []attrKV
			for _, n := range names {
				if c := sh.cols[n]; c.ids[r] != 0 {
					kvs = append(kvs, attrKV{n, c.dict[c.ids[r]]})
				}
			}
			refFeed(fresh, sketched, sh.times[r], sh.drift[r], kvs)
		}
	}
	return fresh
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
