package driftlog

import (
	"fmt"
	"slices"
	"sort"
)

// Row-scan reference implementations of the View queries: the loops the
// product ran before the bitset index, kept here as the differential tests'
// independent truth. Each visits every pinned row of every shard and asks
// the per-row predicate viewShard.inWindow — never the window bitmap, its
// [wlo, whi) word range or a value bitmap — so a bug in
// buildWindowBM, in the index or in the product's window-row walk shows up
// as a disagreement. They share with the product only the pinned columns,
// the view's pinned dictionaries (searched linearly here, never through the
// store's index) and the overlay's word store (driftAt, materialize, bump).

// refResolveConds maps conditions onto one shard's columns. match=false
// means the predicate can never match in this shard (value or column
// absent there). An attribute unknown to the whole store is an error.
func refResolveConds(v *View, vs *viewShard, conds []Cond) (ccs []colCond, match bool, err error) {
	// Validate every attribute name before any per-shard short-circuit,
	// so the error is independent of which shard a value landed in.
	for _, c := range conds {
		if _, ok := v.dicts[c.Attr]; !ok {
			return nil, false, fmt.Errorf("driftlog: unknown attribute %q", c.Attr)
		}
	}
	ccs = make([]colCond, 0, len(conds))
	for _, c := range conds {
		col, ok := refCol(v, vs, c.Attr)
		if !ok {
			return nil, false, nil // column never appeared in this shard
		}
		id := slices.Index(v.dicts[c.Attr][1:], c.Value) + 1
		if id == 0 {
			return nil, false, nil // value no pinned row carries
		}
		ccs = append(ccs, colCond{ids: col.ids, id: uint32(id)})
	}
	return ccs, true, nil
}

// namedCol pairs a shard column with its attribute name.
type namedCol struct {
	name string
	c    viewCol
}

// refCol returns the shard's pinned column of the named attribute (ok is
// false when the shard holds none).
func refCol(v *View, vs *viewShard, name string) (viewCol, bool) {
	v.s.dictMu.RLock()
	d := v.s.dicts[name]
	v.s.dictMu.RUnlock()
	if d == nil {
		return viewCol{}, false
	}
	return vs.col(d.pos)
}

// refSortedCols collects the shard's non-excluded columns in name order, so
// pair keys come out canonical (AttrA < AttrB).
func refSortedCols(v *View, vs *viewShard, exclude map[string]bool) []namedCol {
	cols := make([]namedCol, 0, len(vs.cols))
	for name := range v.dicts {
		if c, ok := refCol(v, vs, name); ok && !exclude[name] {
			cols = append(cols, namedCol{name, c})
		}
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].name < cols[j].name })
	return cols
}

// refLen is the reference for View.Len.
func refLen(v *View) int {
	n := 0
	for si := range v.shards {
		vs := &v.shards[si]
		for i := 0; i < vs.rows; i++ {
			if vs.inWindow(v, i) {
				n++
			}
		}
	}
	return n
}

// refCount is the reference for View.Count.
func refCount(v *View, conds []Cond, ov *Overlay) (CountResult, error) {
	var partial [numShards]CountResult
	var errs [numShards]error
	v.eachShard(rowOperands, func(si int) {
		vs := &v.shards[si]
		ccs, match, err := refResolveConds(v, vs, conds)
		if err != nil {
			errs[si] = err
			return
		}
		if !match {
			return
		}
		var res CountResult
	rows:
		for i := 0; i < vs.rows; i++ {
			if !vs.inWindow(v, i) {
				continue
			}
			for _, cc := range ccs {
				if cc.ids[i] != cc.id {
					continue rows
				}
			}
			res.Total++
			if ov.driftAt(vs, si, i) {
				res.Drift++
			}
		}
		partial[si] = res
	})
	var out CountResult
	for si := range partial {
		if errs[si] != nil {
			return CountResult{}, errs[si]
		}
		out.Total += partial[si].Total
		out.Drift += partial[si].Drift
	}
	return out, nil
}

// refClearDrift is the reference for View.ClearDrift.
func refClearDrift(v *View, conds []Cond, ov *Overlay) (int, error) {
	var cleared [numShards]int
	var errs [numShards]error
	v.eachShard(rowOperands, func(si int) {
		vs := &v.shards[si]
		ccs, match, err := refResolveConds(v, vs, conds)
		if err != nil {
			errs[si] = err
			return
		}
		if !match {
			return
		}
		var words []uint64
	rows:
		for i := 0; i < vs.rows; i++ {
			if !vs.inWindow(v, i) {
				continue
			}
			for _, cc := range ccs {
				if cc.ids[i] != cc.id {
					continue rows
				}
			}
			if words == nil {
				// Per-shard slots: safe under the parallel fan-out.
				words = ov.materialize(si)
			}
			w, bit := i>>6, uint64(1)<<(uint(i)&63)
			if words[w]&bit != 0 {
				words[w] &^= bit
				cleared[si]++
			}
		}
	})
	n := 0
	for si := range cleared {
		if errs[si] != nil {
			return 0, errs[si]
		}
		n += cleared[si]
	}
	if n > 0 {
		ov.bump()
	}
	return n, nil
}

// valueMap is the map form of a level-1 group-by, the reference's shape:
// per attribute, every value the window holds with its counts.
func valueMap(acs []AttrCounts) map[string]map[string]CountResult {
	out := make(map[string]map[string]CountResult, len(acs))
	for _, ac := range acs {
		byVal := map[string]CountResult{}
		for id, cr := range ac.Counts {
			if cr.Total > 0 {
				byVal[ac.Dict[id]] = cr
			}
		}
		out[ac.Name] = byVal
	}
	return out
}

// refAttrValueCounts is the reference for View.AttrValueCounts.
func refAttrValueCounts(v *View, ov *Overlay) map[string]map[string]CountResult {
	var partial [numShards]map[string]map[string]CountResult
	v.eachShard(rowOperands, func(si int) {
		vs := &v.shards[si]
		out := map[string]map[string]CountResult{}
		cols := refSortedCols(v, vs, nil)
		for i := 0; i < vs.rows; i++ {
			if !vs.inWindow(v, i) {
				continue
			}
			d := ov.driftAt(vs, si, i)
			for _, nc := range cols {
				id := nc.c.ids[i]
				if id == 0 {
					continue
				}
				byVal := out[nc.name]
				if byVal == nil {
					byVal = map[string]CountResult{}
					out[nc.name] = byVal
				}
				val := v.dicts[nc.name][id]
				cr := byVal[val]
				cr.Total++
				if d {
					cr.Drift++
				}
				byVal[val] = cr
			}
		}
		partial[si] = out
	})
	out := make(map[string]map[string]CountResult, len(v.dicts))
	for name := range v.dicts {
		out[name] = map[string]CountResult{}
	}
	for _, p := range partial {
		for name, byVal := range p {
			dstVals := out[name]
			if dstVals == nil {
				dstVals = map[string]CountResult{}
				out[name] = dstVals
			}
			for val, cr := range byVal {
				acc := dstVals[val]
				acc.Total += cr.Total
				acc.Drift += cr.Drift
				dstVals[val] = acc
			}
		}
	}
	return out
}

// refPairCounts is the reference for View.PairCounts: one pass over the
// rows, O(rows·k²) for k attributes per row.
func refPairCounts(v *View, ov *Overlay, exclude map[string]bool) map[PairKey]CountResult {
	var partial [numShards]map[PairKey]CountResult
	v.eachShard(rowOperands, func(si int) {
		vs := &v.shards[si]
		cols := refSortedCols(v, vs, exclude)
		out := map[PairKey]CountResult{}
		for i := 0; i < vs.rows; i++ {
			if !vs.inWindow(v, i) {
				continue
			}
			d := ov.driftAt(vs, si, i)
			for a := 0; a < len(cols); a++ {
				ida := cols[a].c.ids[i]
				if ida == 0 {
					continue
				}
				for b := a + 1; b < len(cols); b++ {
					idb := cols[b].c.ids[i]
					if idb == 0 {
						continue
					}
					k := PairKey{
						AttrA: cols[a].name, ValA: v.dicts[cols[a].name][ida],
						AttrB: cols[b].name, ValB: v.dicts[cols[b].name][idb],
					}
					cr := out[k]
					cr.Total++
					if d {
						cr.Drift++
					}
					out[k] = cr
				}
			}
		}
		partial[si] = out
	})
	out := map[PairKey]CountResult{}
	for _, p := range partial {
		for k, cr := range p {
			acc := out[k]
			acc.Total += cr.Total
			acc.Drift += cr.Drift
			out[k] = acc
		}
	}
	return out
}

// valueMask names, per attribute, the values a masked pair count keeps.
type valueMask map[string]map[string]bool

// maskedPairs is apriori's level 2 under a mask as mining runs it: the kept
// values resolved to Items and put in (attribute, value) order, one group
// per kept value extended by the kept values of every later attribute,
// counted by ExtensionCounts and keyed as PairCounts keys them (non-zero
// counts only). A name or value the view does not hold is dropped.
func maskedPairs(v *View, ov *Overlay, mask valueMask) map[PairKey]CountResult {
	type kept struct {
		attr, val string
		it        Item
	}
	var items []kept
	v.s.dictMu.RLock()
	for attr, vals := range mask {
		d, pinned := v.s.dicts[attr], v.dicts[attr]
		for val := range vals {
			if pinned != nil {
				if id := d.index[val]; id != 0 && int(id) < len(pinned) {
					items = append(items, kept{attr, val, Item{d.pos, id}})
				}
			}
		}
	}
	v.s.dictMu.RUnlock()
	sort.Slice(items, func(i, j int) bool {
		if items[i].attr != items[j].attr {
			return items[i].attr < items[j].attr
		}
		return items[i].val < items[j].val
	})
	groups, ext := make([]Group, len(items)), make([][]int, len(items))
	for i := range items {
		groups[i].Prefix = []Item{items[i].it}
		for j := i + 1; j < len(items); j++ {
			if items[j].attr != items[i].attr {
				groups[i].Ext = append(groups[i].Ext, items[j].it)
				ext[i] = append(ext[i], j)
			}
		}
	}
	out := map[PairKey]CountResult{}
	for i, counts := range v.ExtensionCounts(ov, groups) {
		for k, cr := range counts {
			if cr.Total > 0 {
				a, b := items[i], items[ext[i][k]]
				out[PairKey{AttrA: a.attr, ValA: a.val, AttrB: b.attr, ValB: b.val}] = cr
			}
		}
	}
	return out
}

// refMasked is the reference for maskedPairs: an unmasked pair group-by
// with every pair the mask does not keep on both sides dropped.
func refMasked(pairs map[PairKey]CountResult, mask valueMask) map[PairKey]CountResult {
	out := map[PairKey]CountResult{}
	for k, cr := range pairs {
		if mask[k.AttrA][k.ValA] && mask[k.AttrB][k.ValB] {
			out[k] = cr
		}
	}
	return out
}

// maskFromBits builds a mask over the view's own values: walking the
// attributes and their values in sorted order, the j-th value is kept when
// bit j%8 of sel is set, so 0 keeps nothing and 0xFF everything. Every mask
// also names a value no row carries and an attribute the store never saw.
func maskFromBits(v *View, sel uint8) valueMask {
	mask := valueMask{"no-such-attr": {"x": true}}
	values := refAttrValueCounts(v, nil)
	attrs := make([]string, 0, len(values))
	for attr := range values {
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs)
	j := 0
	for _, attr := range attrs {
		vals := make([]string, 0, len(values[attr]))
		for val := range values[attr] {
			vals = append(vals, val)
		}
		sort.Strings(vals)
		for _, val := range vals {
			if sel>>(j%8)&1 == 1 {
				if mask[attr] == nil {
					mask[attr] = map[string]bool{"no-such-value": true}
				}
				mask[attr][val] = true
			}
			j++
		}
	}
	return mask
}

// diffMaskBits are the masks each view is probed with: nothing kept, single
// values, alternating values, whole runs of values (which drops whole
// attributes on narrow logs), everything.
var diffMaskBits = []uint8{0, 0x01, 0x55, 0xAA, 0x0F, 0xF0, 0xFF}

// refSampleIDs is the reference for View.SampleIDs: the loop the product
// ran before SampleIDs moved onto the window-row walk.
func refSampleIDs(v *View, conds []Cond) ([]int64, error) {
	ids, _, err := refSampleHits(v, conds)
	return ids, err
}

// refSamples is the reference for View.Samples: refSampleHits keeping the
// rows that hold a vector.
func refSamples(v *View, conds []Cond) ([]int64, [][]float64, error) {
	ids, xs, err := refSampleHits(v, conds)
	if err != nil {
		return nil, nil, err
	}
	var outIDs []int64
	var outXs [][]float64
	for i, x := range xs {
		if x != nil {
			outIDs, outXs = append(outIDs, ids[i]), append(outXs, x)
		}
	}
	return outIDs, outXs, nil
}

// refSampleHits returns the sample IDs of matching rows in canonical
// order, each with its row's vector (nil when none) found by a linear
// search of the shard's sampled rows.
func refSampleHits(v *View, conds []Cond) ([]int64, [][]float64, error) {
	type hit struct {
		seq int64
		id  int64
		x   []float64
	}
	var hits []hit
	for si := range v.shards {
		vs := &v.shards[si]
		ccs, match, err := refResolveConds(v, vs, conds)
		if err != nil {
			return nil, nil, err
		}
		if !match {
			continue
		}
	rows:
		for i := 0; i < vs.rows; i++ {
			if !vs.inWindow(v, i) {
				continue
			}
			for _, cc := range ccs {
				if cc.ids[i] != cc.id {
					continue rows
				}
			}
			if vs.samples[i] >= 0 {
				h := hit{seq: vs.seqs[i], id: vs.samples[i]}
				for k, row := range vs.sampleRows {
					if row == i {
						h.x = vs.sampleVecs[k]
					}
				}
				hits = append(hits, h)
			}
		}
	}
	sort.Slice(hits, func(a, b int) bool { return hits[a].seq < hits[b].seq })
	var ids []int64
	var xs [][]float64
	for _, h := range hits {
		ids, xs = append(ids, h.id), append(xs, h.x)
	}
	return ids, xs, nil
}
