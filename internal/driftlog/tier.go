// Tier-up: when an attribute's dictionary grows past SketchConfig.Threshold
// values, its columns drop their per-value bitmaps and keep only their ids.
// A query on such an attribute walks the window's rows over those ids,
// exactly (View.Count's routing; the group-bys decide per column). Tiering
// is sticky: an attribute never returns to the bitmaps.
//
// The names keep the word "sketch" from an approximate tier that once
// answered such attributes: the composed benchmark (bench/) reads
// NewStoreWithSketch, SketchConfig.Threshold, SketchedAttrs and
// Stats.SketchAttrs/SketchBytes by name, and they stay until that benchmark
// is renamed with them.
package driftlog

import (
	"slices"
	"sort"
)

// SketchConfig tunes the tier-up. The zero value selects the default; NewStore
// uses the zero value. The name is kept for the composed benchmark, which sets
// it through cloud.Config.Sketch.
type SketchConfig struct {
	// Threshold is the distinct-value count above which an attribute drops
	// its bitmaps (default 4096 — high enough that ordinary categorical
	// attributes never tier).
	Threshold int
}

// tieredSet returns the current immutable tiered-attribute snapshot (nil
// when nothing has tiered). tierUp publishes the successor while it holds
// every shard lock, so a column created under a shard lock reads the set that
// decides whether it carries bitmaps.
func (s *Store) tieredSet() map[string]bool {
	p := s.tieredPtr.Load()
	if p == nil {
		return nil
	}
	return *p
}

// SketchedAttrs returns the attributes that have tiered up (dropped their
// bitmaps), in sorted order. The name is kept for the composed benchmark.
func (s *Store) SketchedAttrs() []string {
	set := s.tieredSet()
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// tierUp moves attr off the bitmaps: with every shard locked it replaces
// the attribute's columns with ones holding no bitmaps and sharing their ids,
// row counts and level lists (a view keeps the old ones: appends only grow
// what they share), and publishes the successor tiered set, which a column
// created later reads under its shard lock.
func (s *Store) tierUp(attr string) {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	if cur := s.tieredSet(); !cur[attr] {
		next := map[string]bool{attr: true}
		for name := range cur {
			next[name] = true
		}
		for si := range s.shards {
			if col := s.shards[si].cols[attr]; col != nil {
				s.shards[si].cols[attr] = &column{pos: col.pos, ids: col.ids, rows: col.rows, levels: slices.Clone(col.levels), tiered: true}
			}
		}
		s.tieredPtr.Store(&next)
	}
	for i := numShards - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
}
