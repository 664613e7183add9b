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
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

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

// winBM is a view shard's window bitmap, held over the word range its rows
// span: words[i] is shard word lo+i, the partial tail word included, and
// every word outside the range is zero. A window over the newest rows of a
// long shard stores those words only.
type winBM struct {
	lo    int
	words []uint64
}

// word returns shard word w of the window, the tail word included.
func (b winBM) word(w int) uint64 {
	if i := w - b.lo; i >= 0 && i < len(b.words) {
		return b.words[i]
	}
	return 0
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
// walks (eachMatch, valueScan, pairScanInto).
func (ov *Overlay) driftAt(vs *viewShard, si, row int) bool {
	w := ov.words(si)
	if w == nil {
		return vs.drift[row]
	}
	return w[row>>6]&(1<<(uint(row)&63)) != 0
}

// bump assigns a fresh epoch after a mutating clear.
func (ov *Overlay) bump() { ov.epoch = overlayEpochSeq.Add(1) }

// condBitmaps snapshots the shard's bitmaps of the resolved conditions under
// one read lock of the shard. match=false means the predicate can never match
// in this shard: a column or value it does not hold. dst is the caller's
// (stack) buffer for the common small-itemset case.
func (vs *viewShard) condBitmaps(refs []condRef, dst []bmSnap) (bms []bmSnap, match bool) {
	bms = dst[:0]
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	for _, r := range refs {
		col, ok := vs.col(r.pos)
		if !ok {
			return nil, false
		}
		bm := vs.snap(col, r.id)
		if len(bm.words) == 0 && bm.tail == 0 {
			return nil, false
		}
		bms = append(bms, bm)
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
	for i, word := range vs.window.words {
		base := (vs.wlo + i) << 6
		for ; word != 0; word &= word - 1 {
			f(base | bits.TrailingZeros64(word))
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

// andWords sets dst to the window AND every bitmap of bms over shard words
// [w, w+len(dst)): plain slice ANDs, so every operand must hold those words
// in its slice (below fullWords and the window's end; see andPopcount).
func (vs *viewShard) andWords(dst []uint64, bms []bmSnap, w int) {
	n := len(dst)
	win := vs.window.words[w-vs.wlo:][:n]
	if len(bms) == 0 {
		copy(dst, win)
		return
	}
	b0 := bms[0].words[w : w+n]
	for i, x := range win {
		dst[i] = x & b0[i]
	}
	for _, bm := range bms[1:] {
		for i, x := range bm.words[w : w+n] {
			dst[i] &= x
		}
	}
}

// andWord is the window AND every bitmap of bms at shard word w, read a
// word at a time: the path of the partial tail word, which a bmSnap holds
// apart from its slice.
func (vs *viewShard) andWord(bms []bmSnap, w int) uint64 {
	acc := vs.window.word(w)
	for _, bm := range bms {
		acc &= bm.word(w, vs.fullWords)
	}
	return acc
}

// andBlock is the words a conjunction of two or more bitmaps is ANDed
// into at a time (andPopcountConj, clearDriftBitset): 512 B of stack.
const andBlock = 64

// andPopcount intersects the condition bitmaps with the shard's window
// bitmap and returns the matching row count plus, of those, the rows
// whose drift flag is set — read from ovWords when non-nil, the stored
// drift bitmap otherwise. Pure word-wise AND + popcount over the window's
// word range: O(window rows/64). Below fullWords every operand holds its
// words in a slice (a bitmap ending before the window's end was cut off by
// windowEnd), and popcountAnd counts them: the window against the one
// bitmap (or against itself with none); with more, andPopcountConj ANDs
// all but the last into the window first. Only the partial tail word goes
// through bmSnap.word.
func (vs *viewShard) andPopcount(bms []bmSnap, ovWords []uint64) (total, drift int) {
	lo, n := vs.wlo, vs.windowEnd(bms)
	full := min(n, vs.fullWords)
	flags := ovWords
	if flags == nil {
		flags = vs.driftBM.words // may end before full: no drift past its end
	}
	if lo < full {
		switch len(bms) {
		case 0, 1:
			a := vs.window.words[:full-lo]
			b := a // no condition: the window counted against itself
			if len(bms) == 1 {
				b = bms[0].words[lo:full]
			}
			total, drift = popcountAnd(a, b, flags[min(lo, len(flags)):min(full, len(flags))])
		default:
			total, drift = vs.andPopcountConj(bms, flags, full)
		}
	}
	if full < n {
		acc := vs.andWord(bms, full)
		total += bits.OnesCount64(acc)
		drift += bits.OnesCount64(acc & vs.driftWord(ovWords, full))
	}
	return total, drift
}

// andPopcountConj is andPopcount's full words [wlo, full) for two or more
// bitmaps: the window AND all but the last, a block at a time, counted
// against the last.
func (vs *viewShard) andPopcountConj(bms []bmSnap, flags []uint64, full int) (total, drift int) {
	last := bms[len(bms)-1]
	var buf [andBlock]uint64
	for w := vs.wlo; w < full; w += andBlock {
		e := min(full, w+andBlock)
		a := buf[:e-w]
		vs.andWords(a, bms[:len(bms)-1], w)
		t, d := popcountAnd(a, last.words[w:e], flags[min(w, len(flags)):min(e, len(flags))])
		total += t
		drift += d
	}
	return total, drift
}

// andCount is andPopcount against operands already laid out densely: acc
// and drift hold words [lo, n) of a shard (index 0 = word lo), and the
// result counts acc AND the bitmap, and of those the drift-flagged.
func (b bmSnap) andCount(acc, drift []uint64, lo, n, fw int) (total, flagged int) {
	full := min(n, fw)
	if lo < full {
		total, flagged = popcountAnd(acc[:full-lo], b.words[lo:full], drift[:full-lo])
	}
	if full < n {
		a := acc[full-lo] & b.tail
		total += bits.OnesCount64(a)
		flagged += bits.OnesCount64(a & drift[full-lo])
	}
	return total, flagged
}

// countBitset is the indexed Count path: word-wise AND + popcount per
// shard, sequential (popcounting a shard is far below the parallel
// fan-out's break-even point).
func (v *View) countBitset(refs []condRef, ov *Overlay) CountResult {
	var out CountResult
	var buf [4]bmSnap
	for si := range v.shards {
		vs := &v.shards[si]
		if vs.wlo == vs.whi {
			continue // no window row in this shard
		}
		bms, match := vs.condBitmaps(refs, buf[:])
		if !match {
			continue
		}
		t, d := vs.andPopcount(bms, ov.words(si))
		out.Total += t
		out.Drift += d
	}
	return out
}

// clearDriftBitset clears the overlaid drift flag of every in-window
// row matching the conditions: overlay &^= (conds AND window), counting
// cleared bits by popcount.
func (v *View) clearDriftBitset(refs []condRef, ov *Overlay) int {
	cleared := 0
	var cb [4]bmSnap
	for si := range v.shards {
		vs := &v.shards[si]
		if vs.wlo == vs.whi {
			continue // no window row in this shard
		}
		bms, match := vs.condBitmaps(refs, cb[:])
		if !match {
			continue
		}
		_, d := vs.andPopcount(bms, ov.words(si))
		if d == 0 {
			continue // nothing to clear: the overlay stays unmaterialized
		}
		cleared += d
		ovWords := ov.materialize(si)
		n := vs.windowEnd(bms)
		full := min(n, vs.fullWords)
		var acc [andBlock]uint64
		for w := vs.wlo; w < full; w += andBlock {
			hit := acc[:min(full, w+andBlock)-w]
			vs.andWords(hit, bms, w)
			for i, x := range hit {
				ovWords[w+i] &^= x
			}
		}
		if full < n {
			ovWords[full] &^= vs.andWord(bms, full)
		}
	}
	if cleared > 0 {
		ov.bump()
	}
	return cleared
}

// maxValueSweep bounds the values of one exact column that the level-1
// group-by popcounts. A value bitmap costs one popcountAnd word per window
// word (64 rows); a row visit of valueScan's dense table costs about
// four words of the Go loop and eight of the AVX2 body, so the sweep breaks
// even near 256 values on the one and 512 on the other (DESIGN.md §5g).
// Up to 128 values it is at least twice as fast as the walk on either
// body; past that the shard walks its window rows for that column instead.
const maxValueSweep = 128

// AttrCounts is one attribute's level-1 group-by over a view: Counts[id] is
// the window rows carrying store id id, whose value is Dict[id], and of those
// the drift-flagged; a slot whose Total is Uncounted was left out by the
// call's Floor. Dict is the view's pinned dictionary and Counts spans it, so
// the counts of two views of one store add by id over the shorter.
type AttrCounts struct {
	Name   string
	Dict   []string
	Counts []CountResult
}

// Uncounted is the Total of a slot a Floor left out.
const Uncounted = -1

// Floor is apriori's occurrence floor as the level-1 group-by applies it: a
// value is counted only when its row bound clears MinOccurrence of Rows, the
// mined window's rows (a delta's caller passes the grown window's), and no
// value of an Exclude attribute is.
type Floor struct {
	Rows          int
	MinOccurrence float64
	Exclude       []string
}

// Clears reports whether n rows reach the floor: the miner's occurrence test
// too, so a value is skipped only when the miner would drop it.
func (f Floor) Clears(n int) bool { return float64(n)/float64(f.Rows) >= f.MinOccurrence }

// AttrValueCounts returns, for each attribute in name order, the per-value
// totals and drift counts inside the view — the first apriori level (one "SQL
// GROUP BY" per attribute). With a floor (at most one; none counts every
// value) it counts only the values whose row bound clears it (applyFloor).
// Shards count in parallel in store-id space: one AND+popcount per counted
// value a shard's column holds, or one walk of the window's rows for a column
// with more than maxValueSweep of them or tiered. The partials add by id into
// one array per attribute.
func (v *View) AttrValueCounts(ov *Overlay, floor ...Floor) []AttrCounts {
	fl := Floor{Rows: 1} // every value clears it
	if len(floor) > 0 {
		fl = floor[0]
	}
	v.s.dictMu.RLock()
	attrs := v.attrs()
	v.s.dictMu.RUnlock()
	out := make([]AttrCounts, len(attrs))
	counting := make([]bool, len(attrs)) // the attribute has a value to count
	for a, at := range attrs {
		out[a] = AttrCounts{Name: at.name, Dict: at.vals, Counts: make([]CountResult, len(at.vals))}
		switch {
		case slices.Contains(fl.Exclude, at.name):
			fillUncounted(out[a].Counts)
		case fl.level() < 0: // every value clears it
			counting[a] = true
		default:
			counting[a] = v.applyFloor(at.pos, out[a].Counts, fl)
		}
	}
	var partial [numShards][]idCount
	v.eachShard(func(si int) { partial[si] = v.shards[si].valueCounts(ov, si, attrs, counting, out) })
	for _, p := range partial {
		for _, c := range p {
			sum := &out[c.a].Counts[c.id]
			sum.Total += c.n.Total
			sum.Drift += c.n.Drift
		}
	}
	return out
}

// level is the highest L whose numShards·(2^L−1) rows fail the floor, so a
// value under 2^L rows in every shard fails it; -1 when zero rows clear it.
func (f Floor) level() int {
	l := -1
	for l < 40 && !f.Clears(numShards*(1<<(l+1)-1)) {
		l++
	}
	return l
}

// applyFloor marks Uncounted every slot of counts (the attribute at pos)
// whose value's row bound fails the floor, reporting whether any value is
// left to count. The bound sums the row counts of the columns the view
// pinned, read under the shard lock: appends only grow them and Compact and
// tierUp replace columns, so it is never below the view's count. It is
// summed only where the level lists cannot decide: a value no shard lists at
// the floor's level has under 2^level rows in each, which fails the floor;
// a listed one clears it on the listing shards' rows alone, or fails it
// even with 2^level−1 rows from every other shard.
func (v *View) applyFloor(pos int, counts []CountResult, fl Floor) bool {
	level := fl.level()
	// Each listed id's rows in the shards listing it (Total), and how many
	// shards do (Drift).
	var listed []uint32
	v.eachColumnLocked(pos, func(c *column) {
		if level >= len(c.levels) {
			return
		}
		for _, id := range c.levels[level] {
			if int(id) < len(counts) { // else interned after the view: no pinned row holds it
				if counts[id].Drift == 0 {
					listed = append(listed, id)
				}
				counts[id].Total += int(c.rows[id])
				counts[id].Drift++
			}
		}
	})
	var kept, unsure []uint32
	for _, id := range listed {
		switch p := counts[id]; {
		case fl.Clears(p.Total):
			kept = append(kept, id)
		case fl.Clears(p.Total + (numShards-p.Drift)*(1<<level-1)):
			unsure = append(unsure, id)
		}
		counts[id] = CountResult{}
	}
	if len(unsure) > 0 {
		v.eachColumnLocked(pos, func(c *column) {
			for _, id := range unsure {
				if int(id) < len(c.rows) {
					counts[id].Total += int(c.rows[id])
				}
			}
		})
		for _, id := range unsure {
			if fl.Clears(counts[id].Total) {
				kept = append(kept, id)
			}
		}
	}
	fillUncounted(counts)
	for _, id := range kept {
		counts[id].Total = 0
	}
	return len(kept) > 0
}

// eachColumnLocked calls f with every shard's pinned column at position pos,
// under the shard's read lock.
func (v *View) eachColumnLocked(pos int, f func(c *column)) {
	for si := range v.shards {
		vs := &v.shards[si]
		if c, ok := vs.col(pos); ok {
			vs.mu.RLock()
			f(c.live)
			vs.mu.RUnlock()
		}
	}
}

// fillUncounted marks every slot Uncounted.
func fillUncounted(counts []CountResult) {
	for i := range counts {
		counts[i] = CountResult{Total: Uncounted}
	}
}

// attrs returns the view's attributes in name order, with no value kept.
// The caller holds dictMu's read lock.
func (v *View) attrs() []selAttr {
	out := make([]selAttr, 0, len(v.dicts))
	for name, vals := range v.dicts {
		out = append(out, selAttr{name: name, pos: v.s.dicts[name].pos, vals: vals})
	}
	slices.SortFunc(out, func(a, b selAttr) int { return strings.Compare(a.name, b.name) })
	return out
}

// idCount is one value's count in a shard's partial group-by: its
// attribute, an index into the query's attributes, and its store id.
type idCount struct {
	a, id uint32
	n     CountResult
}

// valueCounts is one shard's share of AttrValueCounts over the attributes
// with a value to count (counting), counting the values acs does not mark
// Uncounted. A column on the bitmaps routes on those it holds: up to
// maxValueSweep, their bitmaps are swept; more, the window's rows are
// walked, as they are for a tiered column.
func (vs *viewShard) valueCounts(ov *Overlay, si int, attrs []selAttr, counting []bool, acs []AttrCounts) []idCount {
	if vs.wlo == vs.whi {
		return nil // no window row in this shard
	}
	held := 0 // on the bitmaps, the values a column holds bound its partial
	for _, c := range vs.cols {
		if c.live != nil && !c.live.tiered {
			held += len(c.held)
		}
	}
	out := make([]idCount, 0, held)
	var rows []int32
	var idBuf [maxValueSweep + 1]uint32
	var buf [maxValueSweep]bmSnap
	for a, at := range attrs {
		col, ok := vs.col(at.pos)
		if !ok || !counting[a] {
			continue
		}
		marks, ids := acs[a].Counts, idBuf[:0]
		for _, id := range col.held { // up to one past maxValueSweep: then the rows are walked
			if col.live.tiered || len(ids) > maxValueSweep {
				break
			}
			if marks[id].Total != Uncounted {
				ids = append(ids, id)
			}
		}
		if col.live.tiered || len(ids) > maxValueSweep {
			if rows == nil {
				rows = vs.windowRows(make([]int32, 0, 64*(vs.whi-vs.wlo)))
			}
			out = vs.valueScan(ov, si, rows, col, uint32(a), marks, out)
			continue
		}
		bms := vs.snapAll(buf[:0], col, ids)
		for k, id := range ids {
			if n, d := vs.andPopcount(bms[k:k+1], ov.words(si)); n > 0 {
				out = append(out, idCount{uint32(a), id, CountResult{Total: n, Drift: d}})
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

// selAttr is one attribute of a group-by: its name, position (column.pos)
// and pinned dictionary, and for a pair group-by the selection resolved to
// store ids once per query: ids lists the kept ids ascending, and slot maps
// an id to its 1-based position in ids (0 = not kept).
type selAttr struct {
	name      string
	pos       int
	vals      []string
	ids, slot []uint32
}

// selAttrs resolves the selection against the view's dictionaries: the
// attributes with at least one kept value, in name order, so pair keys come
// out canonical (AttrA < AttrB).
func (v *View) selAttrs(sel pairSel) []selAttr {
	var out []selAttr
	v.s.dictMu.RLock()
	defer v.s.dictMu.RUnlock()
	for _, sa := range v.attrs() {
		if sel.mask == nil && !sel.exclude[sa.name] {
			for id := 1; id < len(sa.vals); id++ {
				sa.ids = append(sa.ids, uint32(id))
			}
		}
		for val := range sel.mask[sa.name] {
			if id := v.s.dicts[sa.name].index[val]; id != 0 && int(id) < len(sa.vals) {
				sa.ids = append(sa.ids, id)
			}
		}
		if len(sa.ids) > 0 {
			slices.Sort(sa.ids)
			sa.slot = slotTable(sa.ids, len(sa.vals))
			out = append(out, sa)
		}
	}
	return out
}

// slotTable maps each of ids to its 1-based position, over ids below n.
func slotTable(ids []uint32, n int) []uint32 {
	slot := make([]uint32, n)
	for i, id := range ids {
		slot[id] = uint32(i) + 1
	}
	return slot
}

// keptCol is one shard column of a pair group-by with its kept values in
// slots 1..len(ids): a tiered column's are the query's (selAttr); on the
// bitmaps they are those the shard holds, which is what routing counts.
type keptCol struct {
	a         int // index into the query's selAttrs
	c         viewCol
	ids, slot []uint32 // slot-1 → id; id → slot (0 = not kept)
	bms       []bmSnap // parallel to ids, on the bitmaps
}

// keptCols resolves the query's selection against the shard: its columns
// with at least one kept value, in name order, with their kept bitmaps.
func (vs *viewShard) keptCols(attrs []selAttr) []keptCol {
	kept := make([]keptCol, 0, len(attrs))
	for a := range attrs {
		sa := &attrs[a]
		c, ok := vs.col(sa.pos)
		if !ok {
			continue
		}
		k := keptCol{a: a, c: c, ids: sa.ids, slot: sa.slot}
		if !c.live.tiered {
			k.ids = nil
			for _, id := range c.held {
				if sa.slot[id] != 0 {
					k.ids = append(k.ids, id)
				}
			}
			k.slot, k.bms = slotTable(k.ids, len(sa.vals)), vs.snapAll(nil, c, k.ids)
		}
		if len(k.ids) > 0 {
			kept = append(kept, k)
		}
	}
	return kept
}

// pairCount is one pair of a shard's partial group-by in store-id space:
// the two attributes, as indices into the query's selAttrs (a < b), and
// their values' ids.
type pairCount struct {
	a, b     int
	ida, idb uint32
	n        CountResult
}

// maxPairCross bounds the kept-value cross product per attribute pair that
// the pair group-by popcounts. Each kept pair costs one popcountAnd word
// per window word (window rows / 64); a row visit of pairScanInto's dense
// table costs about four words of the Go loop, so popcounting wins while
// |Ka|·|Kb| stays under 64·4; beyond that the shard walks its window rows
// for that attribute pair only. The AVX2 body would break even near 800
// (DESIGN.md §5g); the bound is the Go loop's, the only body off amd64.
const maxPairCross = 256

// pairCounts is the one pair group-by: the selection resolved to store ids
// once, shards in parallel counting in id space, the per-shard partials
// added by id and each pair's strings built once.
func (v *View) pairCounts(ov *Overlay, sel pairSel) map[PairKey]CountResult {
	attrs := v.selAttrs(sel)
	var partial [numShards][]pairCount
	v.eachShard(func(si int) { partial[si] = v.shards[si].pairCounts(ov, si, attrs) })
	// One map per attribute pair, keyed by the two ids: a 64-bit key.
	sums := make([]map[uint64]CountResult, len(attrs)*len(attrs))
	for _, p := range partial {
		for _, pc := range p {
			m := &sums[pc.a*len(attrs)+pc.b]
			if *m == nil {
				*m = map[uint64]CountResult{}
			}
			k := uint64(pc.ida)<<32 | uint64(pc.idb)
			cr := (*m)[k]
			cr.Total += pc.n.Total
			cr.Drift += pc.n.Drift
			(*m)[k] = cr
		}
	}
	n := 0
	for _, m := range sums {
		n += len(m)
	}
	out := make(map[PairKey]CountResult, n)
	for ab, m := range sums {
		a, b := &attrs[ab/len(attrs)], &attrs[ab%len(attrs)]
		for k, cr := range m {
			out[PairKey{AttrA: a.name, ValA: a.vals[k>>32], AttrB: b.name, ValB: b.vals[uint32(k)]}] = cr
		}
	}
	return out
}

// pairCounts is one shard's share of the group-by. For each pair of kept
// columns: while the kept cross product stays within maxPairCross, AND the
// window with each kept value bitmap of the first once and popcount it
// against each kept value bitmap of the second, all over the window's word
// range [wlo, whi); past it, or with a tiered side (no bitmaps), one walk
// of the window's rows.
func (vs *viewShard) pairCounts(ov *Overlay, si int, attrs []selAttr) []pairCount {
	if vs.wlo == vs.whi {
		return nil // no window row in this shard
	}
	cols := vs.keptCols(attrs)
	fw := vs.fullWords
	lo, n := vs.wlo, vs.whi
	var out []pairCount
	var rows []int32
	var winA, drift []uint64 // words [lo, n): window AND one value of a, drift flags
	for a := 0; a < len(cols); a++ {
		for b := a + 1; b < len(cols); b++ {
			ka, kb := &cols[a], &cols[b]
			if ka.c.live.tiered || kb.c.live.tiered || len(ka.ids)*len(kb.ids) > maxPairCross {
				if rows == nil {
					rows = vs.windowRows(make([]int32, 0, 64*(n-lo)))
				}
				out = vs.pairScanInto(ov, si, rows, ka, kb, out)
				continue
			}
			if winA == nil {
				winA, drift = make([]uint64, n-lo), make([]uint64, n-lo)
				if ovWords := ov.words(si); ovWords != nil {
					copy(drift, ovWords[lo:n])
				} else {
					copy(drift, vs.driftBM.words[min(lo, len(vs.driftBM.words)):])
					if n > fw {
						drift[fw-lo] = vs.driftBM.tail
					}
				}
			}
			out = slices.Grow(out, len(ka.ids)*len(kb.ids))
			for sa, bmA := range ka.bms {
				na := min(bmA.effLen(fw), n)
				if na <= lo {
					continue
				}
				full := min(na, fw)
				win := vs.window.words[:na-lo]
				any := uint64(0)
				for i, x := range bmA.words[lo:full] {
					winA[i] = win[i] & x
					any |= winA[i]
				}
				if full < na {
					winA[full-lo] = win[full-lo] & bmA.tail
					any |= winA[full-lo]
				}
				if any == 0 {
					continue
				}
				for sb, bmB := range kb.bms {
					total, flagged := bmB.andCount(winA, drift, lo, min(bmB.effLen(fw), na), fw)
					if total == 0 {
						continue
					}
					out = append(out, pairCount{ka.a, kb.a, ka.ids[sa], kb.ids[sb], CountResult{Total: total, Drift: flagged}})
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
// with a tiered side (no bitmaps). A row with a value outside the selection
// on either side is skipped; counting runs in slot space.
func (vs *viewShard) pairScanInto(ov *Overlay, si int, rows []int32, a, b *keptCol, out []pairCount) []pairCount {
	nb := uint64(len(b.ids)) + 1
	counts := newIDCounts((len(a.ids)+1)*int(nb), len(rows))
	for _, r := range rows {
		sa, sb := a.slot[a.c.ids[r]], b.slot[b.c.ids[r]]
		if sa == 0 || sb == 0 {
			continue
		}
		counts.add(uint64(sa)*nb+uint64(sb), ov.driftAt(vs, si, int(r)))
	}
	counts.each(func(key uint64, n CountResult) {
		out = append(out, pairCount{a.a, b.a, a.ids[key/nb-1], b.ids[key%nb-1], n})
	})
	return out
}

// valueScan is pairScanInto for one column: the values marks does not mark
// Uncounted, counted over the given shard rows and appended to out as
// attribute a's — the group-by of a column with too many such values to
// popcount or with no bitmaps (tiered). marks spans the dictionary.
func (vs *viewShard) valueScan(ov *Overlay, si int, rows []int32, c viewCol, a uint32, marks []CountResult, out []idCount) []idCount {
	counts := newIDCounts(len(marks), len(rows))
	for _, r := range rows {
		if id := c.ids[r]; id != 0 && marks[id].Total != Uncounted {
			counts.add(uint64(id), ov.driftAt(vs, si, int(r)))
		}
	}
	counts.each(func(id uint64, n CountResult) { out = append(out, idCount{a, uint32(id), n}) })
	return out
}
