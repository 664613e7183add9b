// Tier-up: when an attribute's distinct-value count crosses
// SketchConfig.Threshold, its columns drop their per-value bitmaps and keep
// only their dictionary-encoded ids. Every query that touches such an
// attribute is then answered exactly by a walk of the window's rows over those
// ids (View.Count's routing; the group-bys decide per column). Tiering is
// sticky: an attribute never returns to the bitmaps.
//
// The names keep the word "sketch" from an approximate tier that once
// answered such attributes: the composed benchmark (bench/) reads
// NewStoreWithSketch, SketchConfig.Threshold, SketchedAttrs and
// Stats.SketchAttrs/SketchBytes by name, and they stay until that benchmark
// is renamed with them.
package driftlog

import "sort"

// SketchConfig tunes the tier-up. The zero value selects the default; NewStore
// uses the zero value. The name is kept for the composed benchmark, which sets
// it through cloud.Config.Sketch.
type SketchConfig struct {
	// Threshold is the distinct-value count above which an attribute drops
	// its bitmaps (default 4096 — high enough that ordinary categorical
	// attributes never tier).
	Threshold int
}

// sketchedSet returns the current immutable tiered-attribute snapshot (nil
// when nothing has tiered). tierUp publishes the successor while it holds
// every shard lock, so a column created under a shard lock reads the set that
// decides whether it carries bitmaps.
func (s *Store) sketchedSet() map[string]bool {
	p := s.sketchedPtr.Load()
	if p == nil {
		return nil
	}
	return *p
}

// SketchedAttrs returns the attributes that have tiered up (dropped their
// bitmaps), in sorted order. The name is kept for the composed benchmark.
func (s *Store) SketchedAttrs() []string {
	set := s.sketchedSet()
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// tierUp moves attr off the bitmaps: with every shard locked it frees the
// attribute's per-value bitmaps in each shard (ids and dictionaries stay, for
// the row walk) and publishes the successor tiered set, which a column
// created later reads under its shard lock.
func (s *Store) tierUp(attr string) {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	if cur := s.sketchedSet(); !cur[attr] {
		next := map[string]bool{attr: true}
		for name := range cur {
			next[name] = true
		}
		for si := range s.shards {
			if col := s.shards[si].cols[attr]; col != nil {
				col.dropBits()
			}
		}
		s.sketchedPtr.Store(&next)
	}
	for i := numShards - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
	// The attribute's distinct-value tracking set is no longer needed
	// (tiering is sticky).
	s.attrMu.Lock()
	delete(s.card, attr)
	s.attrMu.Unlock()
}

// trackValues records a batch column's used values for an attribute still
// on the bitmaps and reports whether the attribute just crossed the
// threshold. The read-locked fast path exits without mutation when every
// value is already known, which is the steady state.
func (s *Store) trackValues(name string, vals []string) (crossed bool) {
	s.attrMu.RLock()
	seen := s.card[name]
	known := seen != nil
	if known {
		for _, v := range vals {
			if !seen[v] {
				known = false
				break
			}
		}
	}
	s.attrMu.RUnlock()
	if known {
		return false
	}
	s.attrMu.Lock()
	defer s.attrMu.Unlock()
	if s.sketchedSet()[name] {
		return false
	}
	m := s.card[name]
	if m == nil {
		m = map[string]bool{}
		s.card[name] = m
	}
	for _, v := range vals {
		m[v] = true
	}
	return len(m) > s.threshold
}
