package driftlog

import (
	"slices"
	"time"
)

// Compact drops every row with a timestamp before cutoff, returning how
// many rows were removed. Dictionary encodings are rebuilt per shard, so
// value IDs for vanished attributes do not leak. Outstanding Views keep
// reading their pinned snapshots (memory-safe) but no longer reflect the
// store; create views after compaction. The store remembers the largest
// cutoff it has been given, even when no row goes: a WAL replayed into
// it deletes the sealed files that cutoff has expired (WAL.Compact), so
// one retention rule bounds both memory and disk.
func (s *Store) Compact(cutoff time.Time) int {
	limit := cutoff.UnixNano()
	for c := s.cutoff.Load(); limit > c && !s.cutoff.CompareAndSwap(c, limit); c = s.cutoff.Load() {
	}
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
			nc := newColumn(0)
			if sh.cols[name].sketched {
				nc.dropBits() // a tiered column stays tiered: no bitmaps to rebuild
			}
			newCols[name] = nc
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
					if !nc.sketched {
						nc.bits[nid] = setBit(nc.bits[nid], ni)
					}
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
