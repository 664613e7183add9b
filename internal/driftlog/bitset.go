// Bitset index layer: per-(attribute, value) bitmaps maintained at
// append time in every shard, plus a bitset drift/clear overlay, so
// support counting (Count, ClearDrift, AttrValueCounts, PairCounts) is a
// word-wise AND + popcount instead of a row scan. The row-scan loops the
// index replaced live on as the tests' independent reference
// (scanref_test.go) — the same contract as the blocked-vs-naive tensor
// kernels.
//
// Concurrency model: a bitmap word is immutable once every row it covers
// has been appended, and appends only ever touch the word holding the
// row being written. A View therefore pins, per bitmap, the fully
// populated word prefix by reference (race-free against concurrent
// appends) plus a by-value copy of the one partial word at the pinned
// row boundary, taken under the shard lock (bmSnap.tail).
package driftlog

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// onesCount is math/bits.OnesCount64 (named so driftlog.go needs no
// extra import).
func onesCount(w uint64) int { return bits.OnesCount64(w) }

// setBit grows words to cover bit i (zero-filling) and sets it.
func setBit(words []uint64, i int) []uint64 {
	w := i >> 6
	for len(words) <= w {
		words = append(words, 0)
	}
	words[w] |= 1 << (uint(i) & 63)
	return words
}

// bmSnap is an immutable snapshot of one bitmap at view-creation time:
// the fully populated word prefix (shared with the live bitmap) plus the
// partial word at the pinned row count, copied by value. A bitmap may be
// shorter than the shard when its value stopped appearing — missing
// words are implicitly zero.
type bmSnap struct {
	words []uint64
	tail  uint64 // logical word index fullWords; 0 when rows%64 == 0
}

// snapBitmap pins one live bitmap. fullWords = rows/64, rem = rows%64.
// Must be called under the shard lock.
func snapBitmap(live []uint64, fullWords int, rem uint) bmSnap {
	p := len(live)
	if p > fullWords {
		p = fullWords
	}
	s := bmSnap{words: live[:p]}
	if rem > 0 && len(live) > fullWords {
		s.tail = live[fullWords] & (1<<rem - 1)
	}
	return s
}

// word returns the bitmap word at index w (fullWords is the tail's
// logical position).
func (b bmSnap) word(w, fullWords int) uint64 {
	if w < len(b.words) {
		return b.words[w]
	}
	if w == fullWords {
		return b.tail
	}
	return 0
}

// effLen is the number of words that can be non-zero.
func (b bmSnap) effLen(fullWords int) int {
	if b.tail != 0 {
		return fullWords + 1
	}
	return len(b.words)
}

// overlayEpochSeq issues globally unique overlay epochs; epoch 0 always
// means "identical to the stored drift flags", which is what memoized
// support caches key on.
var overlayEpochSeq atomic.Uint64

// Overlay is the counterfactual drift overlay: a bitset copy of the
// stored drift flags that ClearDrift mutates without touching the log.
// An Overlay must only be used with the View that produced it. The zero
// epoch marks an overlay that still equals the stored flags; every
// mutating ClearDrift assigns a fresh globally unique epoch, which is
// the invalidation signal memoized support caches key on.
//
// Overlays are pooled: call Release when done to recycle the word
// buffers (using an overlay after Release is a caller bug).
type Overlay struct {
	v     *View
	epoch uint64
	// shards[si] is the materialized drift bitset of shard si (fully
	// covering its pinned rows), valid only while live[si] is set; an
	// unmaterialized shard means "unchanged from the stored drift
	// flags", so a fresh overlay allocates nothing. The buffers stay
	// attached across Release/DriftOverlay cycles, which is what makes
	// the steady-state counterfactual loop allocation-free.
	shards [numShards][]uint64
	live   [numShards]bool
}

var overlayPool = sync.Pool{New: func() any { return new(Overlay) }}

// DriftOverlay returns a fresh overlay equal to the stored drift flags.
// Shards materialize lazily on first mutation, so creation is O(1); the
// overlay and its buffers come from a pool (see Release).
func (v *View) DriftOverlay() *Overlay {
	ov := overlayPool.Get().(*Overlay)
	ov.v = v
	ov.epoch = 0
	return ov
}

// Epoch identifies the overlay's mutation state: 0 while identical to
// the stored drift flags, then a globally unique value after every
// mutating ClearDrift.
func (ov *Overlay) Epoch() uint64 { return ov.epoch }

// Release recycles the overlay (word buffers included) back to the
// pool. The overlay must not be used afterwards.
func (ov *Overlay) Release() {
	ov.live = [numShards]bool{}
	ov.v = nil
	ov.epoch = 0
	overlayPool.Put(ov)
}

// words returns shard si's materialized drift words, or nil while the
// shard still equals the stored flags. Nil-receiver safe.
func (ov *Overlay) words(si int) []uint64 {
	if ov == nil || !ov.live[si] {
		return nil
	}
	return ov.shards[si]
}

// materialize builds shard si's mutable word copy from the stored drift
// flags, reusing the buffer kept from earlier overlay cycles.
func (ov *Overlay) materialize(si int) []uint64 {
	if ov.live[si] {
		return ov.shards[si]
	}
	vs := &ov.v.shards[si]
	nw := (vs.rows + 63) >> 6
	w := ov.shards[si]
	if cap(w) < nw {
		w = make([]uint64, nw)
	} else {
		w = w[:nw]
	}
	copy(w, vs.driftBM.words)
	for i := len(vs.driftBM.words); i < nw; i++ {
		w[i] = 0
	}
	if rem := uint(vs.rows & 63); rem > 0 {
		w[vs.fullWords] = vs.driftBM.tail
	}
	ov.shards[si] = w
	ov.live[si] = true
	return w
}

// driftAt reads one row's (possibly overlaid) drift flag; a nil overlay
// reads the stored flag. This is the row-wise access path of the row
// walks (eachMatch, valueScanInto, pairScanInto).
func (ov *Overlay) driftAt(vs *viewShard, si, row int) bool {
	w := ov.words(si)
	if w == nil {
		return vs.drift[row]
	}
	return w[row>>6]&(1<<(uint(row)&63)) != 0
}

// bump assigns a fresh epoch after a mutating clear.
func (ov *Overlay) bump() { ov.epoch = overlayEpochSeq.Add(1) }

// condBitmaps resolves equality predicates onto one shard's value
// bitmaps. match=false means the predicate can never match in this
// shard. Attribute existence is checked by the caller (checkConds).
// dst is the caller's (stack) buffer for the common small-itemset case.
func (vs *viewShard) condBitmaps(conds []Cond, dst []bmSnap) (bms []bmSnap, match bool) {
	bms = dst[:0]
	for _, c := range conds {
		col, id, ok := vs.lookupCond(c)
		if !ok || int(id) >= len(col.bits) {
			return nil, false
		}
		bms = append(bms, col.bits[id])
	}
	return bms, true
}

// windowEnd is the exclusive upper word bound of an AND of the window
// with bms: the window's last non-zero word, or sooner when a bitmap ends
// first (its value stopped appearing). Loops start at vs.wlo.
func (vs *viewShard) windowEnd(bms []bmSnap) int {
	n := vs.whi
	for _, bm := range bms {
		if e := bm.effLen(vs.fullWords); e < n {
			n = e
		}
	}
	return n
}

// eachWindowRow invokes f(row), in row order, for every row of the shard's
// window bitmap.
func (vs *viewShard) eachWindowRow(f func(i int)) {
	for w := vs.wlo; w < vs.whi; w++ {
		for word := vs.window.word(w, vs.fullWords); word != 0; word &= word - 1 {
			f(w<<6 | bits.TrailingZeros64(word))
		}
	}
}

// driftWord returns word w of the shard's drift flags — the overlay's when
// ovWords is non-nil, the stored drift bitmap's otherwise.
func (vs *viewShard) driftWord(ovWords []uint64, w int) uint64 {
	if ovWords != nil {
		return ovWords[w]
	}
	return vs.driftBM.word(w, vs.fullWords)
}

// andPopcount intersects the condition bitmaps with the shard's window
// bitmap and returns the matching row count plus, of those, the rows
// whose drift flag is set — read from ovWords when non-nil, the stored
// drift bitmap otherwise. Pure word-wise AND + popcount over the window's
// word range: O(window rows/64). Words every operand holds in full are
// intersected a chunk at a time, one operand per pass, straight off the
// slices and counted without a branch; only what is left — the partial
// tail word — goes through bmSnap.word.
func (vs *viewShard) andPopcount(bms []bmSnap, ovWords []uint64) (total, drift int) {
	fw := vs.fullWords
	n := vs.windowEnd(bms)
	full := min(n, len(vs.window.words))
	for _, bm := range bms {
		full = min(full, len(bm.words))
	}
	flags := ovWords
	if flags == nil {
		flags = vs.driftBM.words // may end before full: no drift past its end
	}
	var buf [64]uint64
	w := vs.wlo
	for ; w < full; w += len(buf) {
		acc := buf[:min(len(buf), full-w)]
		copy(acc, vs.window.words[w:])
		for _, bm := range bms {
			for i, x := range bm.words[w : w+len(acc)] {
				acc[i] &= x
			}
		}
		fl := flags[min(w, len(flags)):min(w+len(acc), len(flags))]
		for i, f := range fl {
			total += bits.OnesCount64(acc[i])
			drift += bits.OnesCount64(acc[i] & f)
		}
		for _, a := range acc[len(fl):] {
			total += bits.OnesCount64(a)
		}
	}
	for w = max(vs.wlo, full); w < n; w++ {
		acc := vs.window.word(w, fw)
		for _, bm := range bms {
			acc &= bm.word(w, fw)
		}
		if acc != 0 {
			total += bits.OnesCount64(acc)
			drift += bits.OnesCount64(acc & vs.driftWord(ovWords, w))
		}
	}
	return total, drift
}

// andCount is andPopcount against operands already laid out densely: acc
// and drift hold words [lo, n) of a shard (index 0 = word lo), and the
// result counts acc AND the bitmap, and of those the drift-flagged.
func (b bmSnap) andCount(acc, drift []uint64, lo, n, fw int) (total, flagged int) {
	full := min(n, len(b.words))
	if lo < full {
		drift := drift[:full-lo]
		for i, x := range b.words[lo:full] {
			a := acc[i] & x
			total += bits.OnesCount64(a)
			flagged += bits.OnesCount64(a & drift[i])
		}
	}
	for w := max(lo, full); w < n; w++ {
		a := acc[w-lo] & b.word(w, fw)
		total += bits.OnesCount64(a)
		flagged += bits.OnesCount64(a & drift[w-lo])
	}
	return total, flagged
}

// checkConds validates attribute names against the view's pinned
// registry (the unsharded store's unknown-attribute contract).
func (v *View) checkConds(conds []Cond) error {
	for _, c := range conds {
		if !v.attrs[c.Attr] {
			return fmt.Errorf("driftlog: unknown attribute %q", c.Attr)
		}
	}
	return nil
}

// countBitset is the indexed Count path: word-wise AND + popcount per
// shard, sequential (popcounting a shard is far below the parallel
// fan-out's break-even point).
func (v *View) countBitset(conds []Cond, ov *Overlay) (CountResult, error) {
	if err := v.checkConds(conds); err != nil {
		return CountResult{}, err
	}
	var out CountResult
	var buf [4]bmSnap
	for si := range v.shards {
		vs := &v.shards[si]
		if vs.rows == 0 {
			continue
		}
		bms, match := vs.condBitmaps(conds, buf[:])
		if !match {
			continue
		}
		t, d := vs.andPopcount(bms, ov.words(si))
		out.Total += t
		out.Drift += d
	}
	return out, nil
}

// clearDriftBitset clears the overlaid drift flag of every in-window
// row matching the conditions: overlay &^= (conds AND window), counting
// cleared bits by popcount.
func (v *View) clearDriftBitset(conds []Cond, ov *Overlay) (int, error) {
	if err := v.checkConds(conds); err != nil {
		return 0, err
	}
	cleared := 0
	var buf [4]bmSnap
	for si := range v.shards {
		vs := &v.shards[si]
		if vs.rows == 0 {
			continue
		}
		bms, match := vs.condBitmaps(conds, buf[:])
		if !match {
			continue
		}
		fw := vs.fullWords
		n := vs.windowEnd(bms)
		var ovWords []uint64
		for w := vs.wlo; w < n; w++ {
			acc := vs.window.word(w, fw)
			for _, bm := range bms {
				acc &= bm.word(w, fw)
			}
			if acc == 0 {
				continue
			}
			if ovWords == nil {
				ovWords = ov.materialize(si)
			}
			if hit := ovWords[w] & acc; hit != 0 {
				cleared += bits.OnesCount64(hit)
				ovWords[w] &^= hit
			}
		}
	}
	if cleared > 0 {
		ov.bump()
	}
	return cleared, nil
}

// maxValueSweep bounds the values of one exact column that the level-1
// group-by popcounts. A value bitmap costs one word operation per window
// word (64 rows); a row visit of valueScanInto's dense table costs about one,
// so past 64 values the shard walks its window rows for that column instead.
const maxValueSweep = 64

// AttrValueCounts returns, for each attribute, the per-value totals and
// drift counts inside the view — the single-pass aggregation the first
// apriori level needs (one "SQL GROUP BY" per attribute): one AND+popcount
// per (attribute, value) bitmap, or one walk of the window's rows for a
// column with more than maxValueSweep values or none of the bitmaps
// (sketched).
func (v *View) AttrValueCounts(ov *Overlay) map[string]map[string]CountResult {
	out := make(map[string]map[string]CountResult, len(v.attrs))
	for name := range v.attrs {
		out[name] = map[string]CountResult{}
	}
	var rows []int32
	for si := range v.shards {
		vs := &v.shards[si]
		if vs.wlo == vs.whi {
			continue // no window row in this shard
		}
		ovWords := ov.words(si)
		var one [1]bmSnap
		rows = rows[:0]
		for name, col := range vs.cols {
			byVal := out[name]
			if byVal == nil {
				byVal = map[string]CountResult{}
			}
			if col.sketched || len(col.dict)-1 > maxValueSweep {
				if len(rows) == 0 {
					rows = vs.windowRows(rows)
				}
				vs.valueScanInto(ov, si, rows, col, byVal)
			} else {
				for id := 1; id < len(col.bits); id++ {
					one[0] = col.bits[id]
					n, d := vs.andPopcount(one[:], ovWords)
					if n == 0 {
						continue
					}
					cr := byVal[col.dict[id]]
					cr.Total += n
					cr.Drift += d
					byVal[col.dict[id]] = cr
				}
			}
			if len(byVal) > 0 {
				out[name] = byVal // an attribute registered after the view pinned its names
			}
		}
	}
	return out
}

// ValueMask restricts a pair group-by: per attribute, the values that may
// appear in a counted pair. An attribute the mask does not name, or names
// with no value, contributes no pair and its rows are never walked.
type ValueMask map[string]map[string]bool

// pairSel is what one pair group-by counts: exactly the mask's values, or —
// with a nil mask — every value of every attribute outside exclude.
type pairSel struct {
	mask    ValueMask
	exclude map[string]bool
}

// keptCol is one shard column of a pair group-by with the selection resolved
// to the shard's dictionary ids, once per shard, so counting runs in id space
// over kept ids only. Kept ids occupy slots 1..n in ascending order; with
// every value kept (no mask) a slot is the id itself and neither table is
// built — a sketched column's dictionary can run to 100k values per shard.
type keptCol struct {
	namedCol
	n    int
	ids  []uint32 // slot-1 → id; nil when every value is kept
	slot []uint32 // id → slot, 0 = not kept; built by the first row walk
}

// id returns the dictionary id in a slot.
func (k *keptCol) id(slot int) uint32 {
	if k.ids == nil {
		return uint32(slot)
	}
	return k.ids[slot-1]
}

// slots returns the id → slot table, nil when every value is kept.
func (k *keptCol) slots() []uint32 {
	if k.ids != nil && k.slot == nil {
		k.slot = make([]uint32, len(k.c.dict))
		for i, id := range k.ids {
			k.slot[id] = uint32(i) + 1
		}
	}
	return k.slot
}

// keptCols resolves the selection against the shard: its columns with at
// least one kept value present, in name order, so pair keys come out
// canonical (AttrA < AttrB).
func (vs *viewShard) keptCols(sel pairSel) []keptCol {
	cols := vs.sortedCols(sel.exclude)
	kept := make([]keptCol, 0, len(cols))
	for _, nc := range cols {
		k := keptCol{namedCol: nc, n: len(nc.c.dict) - 1}
		if sel.mask != nil {
			k.ids = nc.c.appendIDs(make([]uint32, 0, len(sel.mask[nc.name])), sel.mask[nc.name])
			slices.Sort(k.ids)
			k.n = len(k.ids)
		}
		if k.n > 0 {
			kept = append(kept, k)
		}
	}
	return kept
}

// pairCount is one pair of a shard's partial group-by.
type pairCount struct {
	key PairKey
	n   CountResult
}

// addPairs merges one shard's partial into out.
func addPairs(out map[PairKey]CountResult, partial []pairCount) {
	for _, p := range partial {
		cr := out[p.key]
		cr.Total += p.n.Total
		cr.Drift += p.n.Drift
		out[p.key] = cr
	}
}

// maxPairCross bounds the kept-value cross product per attribute pair that
// the pair group-by popcounts. A pair of value bitmaps costs one word
// operation per window word (window rows / 64); a row visit of
// pairScanInto's dense table costs about four word operations, so
// popcounting wins while |Ka|·|Kb| stays under 64·4; beyond that the
// shard walks its window rows for that attribute pair only.
const maxPairCross = 256

// pairCounts is the one pair group-by: shards in parallel, each resolving
// the selection to its own dictionary ids and counting in id space, the
// per-shard partials merged once.
func (v *View) pairCounts(ov *Overlay, sel pairSel) map[PairKey]CountResult {
	var partial [numShards][]pairCount
	v.eachShard(func(si int) { partial[si] = v.shards[si].pairCounts(ov, si, sel) })
	n := 0
	for _, p := range partial {
		n = max(n, len(p))
	}
	out := make(map[PairKey]CountResult, n)
	for _, p := range partial {
		addPairs(out, p)
	}
	return out
}

// pairCounts is one shard's share of the group-by. For each pair of kept
// columns: while the kept cross product stays within maxPairCross, AND the
// window with each kept value bitmap of the first once and popcount it
// against each kept value bitmap of the second, all over the window's word
// range [wlo, whi); past it, or with a sketched side (no bitmaps), one walk
// of the window's rows. PairKey strings are built for counted pairs only.
func (vs *viewShard) pairCounts(ov *Overlay, si int, sel pairSel) []pairCount {
	if vs.wlo == vs.whi {
		return nil // no window row in this shard
	}
	cols := vs.keptCols(sel)
	fw := vs.fullWords
	lo, n := vs.wlo, vs.whi
	var out []pairCount
	var rows []int32
	var winA, drift []uint64 // words [lo, n): window AND one value of a, drift flags
	for a := 0; a < len(cols); a++ {
		for b := a + 1; b < len(cols); b++ {
			ka, kb := &cols[a], &cols[b]
			if ka.c.sketched || kb.c.sketched || ka.n*kb.n > maxPairCross {
				if rows == nil {
					rows = vs.windowRows(make([]int32, 0, 64*(n-lo)))
				}
				out = vs.pairScanInto(ov, si, rows, ka, kb, out)
				continue
			}
			if winA == nil {
				winA, drift = make([]uint64, n-lo), make([]uint64, n-lo)
				ovWords := ov.words(si)
				for w := lo; w < n; w++ {
					drift[w-lo] = vs.driftWord(ovWords, w)
				}
			}
			out = slices.Grow(out, ka.n*kb.n)
			for sa := 1; sa <= ka.n; sa++ {
				ida := ka.id(sa)
				bmA := ka.c.bits[ida]
				na := min(bmA.effLen(fw), n)
				any := uint64(0)
				for w := lo; w < na; w++ {
					winA[w-lo] = vs.window.word(w, fw) & bmA.word(w, fw)
					any |= winA[w-lo]
				}
				if any == 0 {
					continue
				}
				for sb := 1; sb <= kb.n; sb++ {
					idb := kb.id(sb)
					bmB := kb.c.bits[idb]
					total, flagged := bmB.andCount(winA, drift, lo, min(bmB.effLen(fw), na), fw)
					if total == 0 {
						continue
					}
					out = append(out, pairCount{
						PairKey{AttrA: ka.name, ValA: ka.c.dict[ida], AttrB: kb.name, ValB: kb.c.dict[idb]},
						CountResult{Total: total, Drift: flagged},
					})
				}
			}
		}
	}
	return out
}

// windowRows appends the shard's window rows to dst in row order.
func (vs *viewShard) windowRows(dst []int32) []int32 {
	vs.eachWindowRow(func(i int) { dst = append(dst, int32(i)) })
	return dst
}

// idCounts counts rows by an integer key below space: in a dense table
// when that is no larger than a few slots per row, through a key → slot map
// otherwise (high-cardinality columns over few rows).
type idCounts struct {
	counts []CountResult  // dense: indexed by key; map mode: by slot
	slot   map[uint64]int // map mode only
	keys   []uint64       // map mode: slot → key
}

func newIDCounts(space, rows int) idCounts {
	if space <= 4*rows {
		return idCounts{counts: make([]CountResult, space)}
	}
	return idCounts{slot: map[uint64]int{}}
}

// add counts one row under key.
func (c *idCounts) add(key uint64, drift bool) {
	j := int(key)
	if c.slot != nil {
		var ok bool
		if j, ok = c.slot[key]; !ok {
			j = len(c.keys)
			c.slot[key] = j
			c.keys = append(c.keys, key)
			c.counts = append(c.counts, CountResult{})
		}
	}
	c.counts[j].Total++
	if drift {
		c.counts[j].Drift++
	}
}

// each invokes f for every key counted at least once.
func (c *idCounts) each(f func(key uint64, n CountResult)) {
	for j, n := range c.counts {
		if n.Total == 0 {
			continue
		}
		if c.slot != nil {
			f(c.keys[j], n)
		} else {
			f(uint64(j), n)
		}
	}
}

// pairScanInto counts one pair of kept columns over the given shard rows —
// the fallback for kept cross products too large to popcount and for pairs
// with a sketched side (no bitmaps). A row with
// a value outside the selection on either side is skipped; counting runs in
// slot space and each PairKey is materialized once per distinct kept pair.
func (vs *viewShard) pairScanInto(ov *Overlay, si int, rows []int32, a, b *keptCol, out []pairCount) []pairCount {
	nb := uint64(b.n) + 1
	counts := newIDCounts((a.n+1)*int(nb), len(rows))
	slotA, slotB := a.slots(), b.slots()
	for _, r := range rows {
		sa, sb := a.c.ids[r], b.c.ids[r]
		if slotA != nil {
			sa = slotA[sa]
		}
		if slotB != nil {
			sb = slotB[sb]
		}
		if sa == 0 || sb == 0 {
			continue
		}
		counts.add(uint64(sa)*nb+uint64(sb), ov.driftAt(vs, si, int(r)))
	}
	counts.each(func(key uint64, n CountResult) {
		out = append(out, pairCount{
			PairKey{AttrA: a.name, ValA: a.c.dict[a.id(int(key/nb))], AttrB: b.name, ValB: b.c.dict[b.id(int(key%nb))]}, n})
	})
	return out
}

// valueScanInto is pairScanInto for one column: its values counted over
// the given shard rows — the group-by of an attribute with too many values
// to popcount or with no bitmaps (sketched).
func (vs *viewShard) valueScanInto(ov *Overlay, si int, rows []int32, c viewCol, out map[string]CountResult) {
	counts := newIDCounts(len(c.dict), len(rows))
	for _, r := range rows {
		if id := c.ids[r]; id != 0 {
			counts.add(uint64(id), ov.driftAt(vs, si, int(r)))
		}
	}
	counts.each(func(id uint64, n CountResult) {
		cr := out[c.dict[id]]
		cr.Total += n.Total
		cr.Drift += n.Drift
		out[c.dict[id]] = cr
	})
}
