// View-side sketch query paths: the approximate twins of the bitset
// Count/AttrValueCounts/PairCounts paths for attributes on the sketch
// tier. Estimates are one-sided (never below the true count) with the
// analytic Count-Min bound surfaced via Approx; View.tier routes what the
// sketches cannot answer (delta views, mutated overlays) to the exact walk
// of the window's rows over the retained column ids.
package driftlog

import (
	"maps"
	"math"
	"sort"
)

// condSketched reports whether any condition touches a sketched attribute
// (per the view's pinned snapshot).
func (v *View) condSketched(conds []Cond) bool {
	if len(v.sketched) == 0 {
		return false
	}
	for _, c := range conds {
		if v.sketched[c.Attr] {
			return true
		}
	}
	return false
}

// Sketched reports whether any attribute was on the approximate tier
// when this view was pinned. Callers that trade index probes for row
// scans (e.g. incremental mining's per-candidate delta counts) use it
// to detect that the scans lost their cheap bitset backing.
func (v *View) Sketched() bool { return len(v.sketched) > 0 }

// dedupeConds removes exact duplicate conditions. ok is false when two
// conditions demand different values for the same attribute — a row holds
// one value per attribute, so the conjunction is provably empty and needs
// no sketch at all.
func dedupeConds(conds []Cond) (uniq []Cond, ok bool) {
	uniq = make([]Cond, 0, len(conds))
	for _, c := range conds {
		dup := false
		for _, o := range uniq {
			if o.Attr == c.Attr {
				if o.Value != c.Value {
					return nil, false
				}
				dup = true
				break
			}
		}
		if !dup {
			uniq = append(uniq, c)
		}
	}
	return uniq, true
}

// Approx reports whether queries over conds on this view are answered
// approximately by the sketch tier, and if so the analytic one-sided
// error bound of the sketch that covers the conjunction: the
// single-condition sketch for one condition, the pair ring for two (the
// pair sketch estimates the two-way conjunction itself), each holding
// with probability >= 1 - e^-depth. Conjunctions of three or more
// conditions have no covering sketch; the reported bound is the tightest
// pair marginal's bound — the result is guaranteed within that bound of
// the smallest pair count, which upper-bounds (but may exceed) the true
// conjunction.
func (v *View) Approx(conds []Cond, ov *Overlay) (bool, int) {
	if v.tier(v.condSketched(conds), ov) != tierSketch {
		return false, 0
	}
	uniq, ok := dedupeConds(conds)
	if !ok {
		return false, 0 // contradictory conditions: answered exactly (zero)
	}
	// The bound is a property of the ring and the window, not of the key:
	// one sketched condition is bounded by its attribute's ring; two or
	// more always include a pair with a sketched side, bounded by the pair
	// ring (the same for every pair).
	ring := v.sk.pairRing()
	if len(uniq) == 1 {
		if ring = v.sk.lookupAttr(uniq[0].Attr); ring == nil {
			return true, 0
		}
	}
	return true, int(ring.bound(v.from, v.to))
}

// orderPair canonicalizes a condition pair (AttrA < AttrB).
func orderPair(a, b Cond) (Cond, Cond) {
	if b.Attr < a.Attr {
		return b, a
	}
	return a, b
}

// ringWindow is the view's window resolved against one sketch ring: the
// fully covered buckets Count-Min answers, and the exact counts of the
// rows in the partially covered edges, grouped by the ring's key.
type ringWindow[K comparable] struct {
	ring *attrSketch
	full []*sketchBucket
	edge map[K]CountResult
}

// sketchWindow resolves the view's window against every ring it can be
// asked about — once per view, on the first sketch-answered query, and
// shared by every candidate and every concurrent query after it: which
// buckets a window covers and which rows fall in its edges depend on the
// ring and the window, never on the key. Pinning both under one ring lock
// also keeps the full/edge split consistent against concurrent folds.
type sketchWindow struct {
	vals  map[string]ringWindow[string] // per sketched attribute, keyed by value
	pairs ringWindow[PairKey]
	// hot is, per sketched attribute, its heavy hitters with a nonzero
	// window estimate: what AttrValueCounts reports.
	hot map[string]map[string]CountResult
}

func (v *View) sketchWin() *sketchWindow {
	v.skOnce.Do(func() {
		sw := &v.skWin
		sw.vals = make(map[string]ringWindow[string], len(v.sketched))
		sw.hot = make(map[string]map[string]CountResult, len(v.sketched))
		var rows []int32
		for name := range v.sketched {
			as := v.sk.lookupAttr(name)
			if as == nil {
				continue
			}
			full, edges := as.cover(v.from, v.to)
			rw := ringWindow[string]{ring: as, full: full, edge: map[string]CountResult{}}
			for si := range v.shards {
				vs := &v.shards[si]
				col, ok := vs.cols[name]
				if !ok {
					continue
				}
				rows = vs.edgeRows(edges, rows[:0])
				vs.valueScanInto(nil, si, rows, col, rw.edge)
			}
			sw.vals[name] = rw
			sw.hot[name] = map[string]CountResult{}
			for _, hhi := range as.hh.Items() {
				if t, d := rw.estimate(hhi.Key, hhi.Key); t > 0 {
					sw.hot[name][hhi.Key] = CountResult{Total: int(t), Drift: int(d)}
				}
			}
		}
		sw.pairs.ring = v.sk.pairRing()
		var edges []span
		sw.pairs.full, edges = sw.pairs.ring.cover(v.from, v.to)
		sw.pairs.edge = map[PairKey]CountResult{}
		var edge []pairCount // one shard column pair's share, reused
		for si := range v.shards {
			vs := &v.shards[si]
			if rows = vs.edgeRows(edges, rows[:0]); len(rows) == 0 {
				continue
			}
			cols := vs.keptCols(pairSel{})
			for a := 0; a < len(cols); a++ {
				for b := a + 1; b < len(cols); b++ {
					if v.sketched[cols[a].name] || v.sketched[cols[b].name] {
						edge = vs.pairScanInto(nil, si, rows, &cols[a], &cols[b], edge[:0])
						addPairs(sw.pairs.edge, edge)
					}
				}
			}
		}
	})
	return &v.skWin
}

// estimate is the windowed one-sided estimate of key: Count-Min sums over
// the fully covered buckets (cmKey is key in the ring's encoding) plus the
// exact count of the edge rows.
func (rw ringWindow[K]) estimate(key K, cmKey string) (total, drift uint64) {
	total, drift = cmSum(rw.full, cmKey)
	e := rw.edge[key]
	return total + uint64(e.Total), drift + uint64(e.Drift)
}

// edgeRows appends to dst the shard's rows whose time falls inside one of
// the (pairwise disjoint) spans. Edges lie inside the view's window, so
// sorted shards binary-search each span and unsorted shards time-check the
// window's rows only.
func (vs *viewShard) edgeRows(edges []span, dst []int32) []int32 {
	if len(edges) == 0 {
		return dst
	}
	if vs.sorted {
		for _, e := range edges {
			lo := sort.Search(vs.rows, func(i int) bool { return vs.times[i] >= e.from })
			hi := sort.Search(vs.rows, func(i int) bool { return vs.times[i] >= e.to })
			for i := lo; i < hi; i++ {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	vs.eachWindowRow(func(i int) {
		t := vs.times[i]
		for _, e := range edges {
			if t >= e.from && t < e.to {
				dst = append(dst, int32(i))
				break
			}
		}
	})
	return dst
}

// countSketch answers Count when at least one condition is sketched: the
// elementwise minimum over every one-sided candidate — the exact bitset
// count of the exact-only condition subset, each sketched condition's
// windowed estimate, and each condition pair's windowed estimate — which
// preserves the one-sided overestimate while tightening multi-condition
// results.
func (v *View) countSketch(conds []Cond, ov *Overlay) (CountResult, error) {
	if err := v.checkConds(conds); err != nil {
		return CountResult{}, err
	}
	// Deduping leaves every attribute distinct, so the pair loop below
	// only probes pairs the ring was actually fed (one-sidedness would
	// break on a never-fed same-attribute pair, which estimates zero).
	conds, ok := dedupeConds(conds)
	if !ok {
		return CountResult{}, nil
	}
	exact := make([]Cond, 0, len(conds))
	for _, c := range conds {
		if !v.sketched[c.Attr] {
			exact = append(exact, c)
		}
	}
	total, drift := uint64(math.MaxUint64), uint64(math.MaxUint64)
	upd := func(t, d uint64) {
		if t < total {
			total = t
		}
		if d < drift {
			drift = d
		}
	}
	if len(exact) > 0 {
		cr, err := v.countBitset(exact, ov)
		if err != nil {
			return CountResult{}, err
		}
		upd(uint64(cr.Total), uint64(cr.Drift))
	}
	sw := v.sketchWin()
	for _, c := range conds {
		if v.sketched[c.Attr] {
			upd(sw.vals[c.Attr].estimate(c.Value, c.Value)) // no ring: zero
		}
	}
	for i := 0; i < len(conds); i++ {
		for j := i + 1; j < len(conds); j++ {
			if !v.sketched[conds[i].Attr] && !v.sketched[conds[j].Attr] {
				continue
			}
			a, b := orderPair(conds[i], conds[j])
			upd(sw.pairs.estimate(PairKey{a.Attr, a.Value, b.Attr, b.Value}, pairSketchKey(a.Attr, a.Value, b.Attr, b.Value)))
		}
	}
	if total == math.MaxUint64 {
		return CountResult{}, nil
	}
	if drift > total {
		drift = total
	}
	return CountResult{Total: int(total), Drift: int(drift)}, nil
}

// attrValueCountsSketch fills the grouped aggregation for sketched
// attributes on a sketch-answered view: Space-Saving heavy hitters enumerate
// the candidate values (every value above N/capacity frequency is
// guaranteed present — exactly the values mining's minimum-occurrence
// threshold can keep), each estimated over the window. Candidates are
// global across time; windowed estimates discard out-of-window mass.
func (v *View) attrValueCountsSketch(out map[string]map[string]CountResult) {
	for name, hot := range v.sketchWin().hot {
		if v.attrs[name] {
			out[name] = maps.Clone(hot)
		}
	}
}

// pairCountsSketch fills the pairs with a sketched side on a sketch-answered
// view by point queries over the cross product of two attributes' candidate
// values: those the window's n rows hold at least n/HeavyHitters times,
// counted exactly or estimated among a value ring's heavy hitters (the
// frequency that guarantees Space-Saving keeps it). So a side has at most
// HeavyHitters candidates, and every pair of values that frequent — the
// level-1 survivors while MinOccurrence ≥ 1/HeavyHitters — that the window
// holds is reported, its estimate never below its count.
func (v *View) pairCountsSketch(out map[PairKey]CountResult, sel pairSel) {
	sw, cands := v.sketchWin(), v.pairCandidates(sel)
	for a, avals := range cands {
		for b, bvals := range cands {
			if a >= b || !v.sketched[a] && !v.sketched[b] {
				continue
			}
			for _, va := range avals {
				for _, vb := range bvals {
					k := PairKey{AttrA: a, ValA: va, AttrB: b, ValB: vb}
					if t, d := sw.pairs.estimate(k, pairSketchKey(a, va, b, vb)); t > 0 {
						out[k] = CountResult{Total: int(t), Drift: int(d)}
					}
				}
			}
		}
	}
}

// pairCandidates returns each attribute's candidate values that the
// selection keeps. Under a mask, only the mask's exact values are counted.
func (v *View) pairCandidates(sel pairSel) map[string][]string {
	counts := map[string]map[string]CountResult{}
	if sel.mask == nil {
		counts = v.attrValueCountsBitset(nil, tierSketch)
	}
	for name, vals := range sel.mask {
		if v.attrs[name] && !v.sketched[name] {
			counts[name] = make(map[string]CountResult, len(vals))
			for val := range vals {
				counts[name][val], _ = v.countBitset([]Cond{{Attr: name, Value: val}}, nil)
			}
		}
	}
	maps.Copy(counts, v.sketchWin().hot)
	n, hh := v.Len(), v.sk.cfg.HeavyHitters
	out := map[string][]string{}
	for name, byVal := range counts {
		for val, cr := range byVal {
			if cr.Total > 0 && cr.Total*hh >= n && sel.keeps(name, val) {
				out[name] = append(out[name], val)
			}
		}
	}
	return out
}
