package driftlog

import "sort"

// Row-scan reference implementations of the View queries: the loops the
// product ran before the bitset index, kept here as the differential tests'
// independent truth. Each visits every pinned row of every shard and asks
// the per-row predicate viewShard.inWindow — never the window bitmap, its
// [wlo, whi) word range, a value bitmap or a sketch — so a bug in
// buildWindowBM, in the index or in the product's window-row walk shows up
// as a disagreement. They share with the product only the pinned columns,
// the per-column dictionary lookup and the overlay's word store (driftAt,
// materialize, bump).

// refResolveConds maps conditions onto one shard's columns. match=false
// means the predicate can never match in this shard (value or column
// absent there). An attribute unknown to the whole store is an error.
func refResolveConds(v *View, vs *viewShard, conds []Cond) (ccs []colCond, match bool, err error) {
	// Validate every attribute name before any per-shard short-circuit,
	// so the error is independent of which shard a value landed in.
	if err := v.checkConds(conds); err != nil {
		return nil, false, err
	}
	ccs = make([]colCond, 0, len(conds))
	for _, c := range conds {
		col, ok := vs.cols[c.Attr]
		if !ok {
			return nil, false, nil // column never appeared in this shard
		}
		id := col.lookup(c.Value)
		if id == 0 {
			return nil, false, nil // value never seen in this shard
		}
		ccs = append(ccs, colCond{ids: col.ids, id: id})
	}
	return ccs, true, nil
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
	v.eachShard(func(si int) {
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
	v.eachShard(func(si int) {
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

// refAttrValueCounts is the reference for View.AttrValueCounts.
func refAttrValueCounts(v *View, ov *Overlay) map[string]map[string]CountResult {
	var partial [numShards]map[string]map[string]CountResult
	v.eachShard(func(si int) {
		vs := &v.shards[si]
		out := map[string]map[string]CountResult{}
		cols := make([]namedCol, 0, len(vs.cols))
		for name, c := range vs.cols {
			cols = append(cols, namedCol{name, c})
		}
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
				val := nc.c.dict[id]
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
	out := make(map[string]map[string]CountResult, len(v.attrs))
	for name := range v.attrs {
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
	v.eachShard(func(si int) {
		vs := &v.shards[si]
		cols := vs.sortedCols(exclude)
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
						AttrA: cols[a].name, ValA: cols[a].c.dict[ida],
						AttrB: cols[b].name, ValB: cols[b].c.dict[idb],
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

// refMasked is the reference for View.PairCountsMasked: an unmasked pair
// group-by with every pair the mask does not keep on both sides dropped.
func refMasked(pairs map[PairKey]CountResult, mask ValueMask) map[PairKey]CountResult {
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
func maskFromBits(v *View, sel uint8) ValueMask {
	mask := ValueMask{"no-such-attr": {"x": true}}
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
	type hit struct {
		seq int64
		id  int64
	}
	var hits []hit
	for si := range v.shards {
		vs := &v.shards[si]
		ccs, match, err := refResolveConds(v, vs, conds)
		if err != nil {
			return nil, err
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
				hits = append(hits, hit{seq: vs.seqs[i], id: vs.samples[i]})
			}
		}
	}
	sort.Slice(hits, func(a, b int) bool { return hits[a].seq < hits[b].seq })
	var out []int64
	for _, h := range hits {
		out = append(out, h.id)
	}
	return out, nil
}
