package driftlog

import (
	"slices"
	"time"
)

// Compact drops every row with a timestamp before cutoff, returning how
// many rows were removed. Store ids are kept (the dictionaries are
// append-only, so a value whose rows all expired keeps its id), and the
// bitmaps, row counts and levels are rebuilt over the kept rows, in new
// columns. Outstanding Views keep
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
		if len(sh.times) == 0 || sh.minTime >= limit {
			sh.mu.Unlock()
			continue // nothing expires
		}
		keep := make([]int, 0, len(sh.times))
		for i, t := range sh.times {
			if t >= limit {
				keep = append(keep, i)
			}
		}
		removed += len(sh.times) - len(keep)
		newSeqs := make([]int64, len(keep))
		newTimes := make([]int64, len(keep))
		newDrift := make([]bool, len(keep))
		newSamples := make([]int64, len(keep))
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
		}
		// New columns, ids copied unchanged: a view may pin the old ones.
		newCols := make(map[string]*column, len(sh.cols))
		for name, old := range sh.cols {
			nc := &column{pos: old.pos, ids: make([]uint32, 0, len(keep)), tiered: old.tiered}
			for _, oi := range keep {
				nc.add(old.ids[oi])
			}
			newCols[name] = nc
		}
		sh.seqs, sh.times, sh.drift, sh.samples = newSeqs, newTimes, newDrift, newSamples
		sh.sampleRows, sh.sampleVecs = newSampleRows, newSampleVecs
		sh.wmin, sh.wmax = wordBounds(newTimes)
		if len(newTimes) > 0 {
			sh.minTime = slices.Min(sh.wmin) // maxTime is a kept row's: only older rows drop
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

// wordBounds returns the time bounds of every 64-row word of times (see
// shard.wmin), in new slices: views may still pin the old ones.
func wordBounds(times []int64) (wmin, wmax []int64) {
	n := (len(times) + 63) >> 6
	wmin, wmax = make([]int64, n), make([]int64, n)
	for w := range wmin {
		rows := times[w<<6 : min(len(times), w<<6+64)]
		wmin[w], wmax[w] = slices.Min(rows), slices.Max(rows)
	}
	return wmin, wmax
}

// Compactions counts Compact calls that removed rows — the generation
// component of any cache keyed on per-shard row watermarks (compaction
// renumbers rows, so watermarks from an earlier generation are void).
func (s *Store) Compactions() int64 {
	return s.compactions.Load()
}
