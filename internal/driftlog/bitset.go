// Bitset index layer: per-(attribute, value) bitmaps maintained at
// append time in every shard, plus a bitset drift/clear overlay, so
// support counting (Count, ClearDrift, AttrValueCounts, ExtensionCounts) is a
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
// walks (eachMatch, valueScan, walkGroup, PairCounts).
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
// in this shard: a column or value it does not hold. tiered reports a
// condition on a column with no bitmaps, which leaves bms short: the caller
// walks rows instead (Count and ClearDrift never get here with one). dst is
// the caller's (stack) buffer for the common small-itemset case.
func (vs *viewShard) condBitmaps(refs []Item, dst []bmSnap) (bms []bmSnap, match, tiered bool) {
	bms = dst[:0]
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	for _, r := range refs {
		col, ok := vs.col(r.Pos)
		if !ok {
			return nil, false, false
		}
		if col.live.tiered {
			tiered = true
			continue
		}
		bm := vs.snap(col, r.ID)
		if len(bm.words) == 0 && bm.tail == 0 {
			return nil, false, false
		}
		bms = append(bms, bm)
	}
	return bms, true, tiered
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

// andCount is andPopcount against a dense operand: acc holds words [lo, n)
// of a shard (index 0 = word lo), flags the drift words as andPopcount reads
// them and tail the drift word at fw, and the result counts acc AND the
// bitmap, and of those the drift-flagged.
func (b bmSnap) andCount(acc, flags []uint64, tail uint64, lo, n, fw int) (total, flagged int) {
	full := min(n, fw)
	if lo < full {
		total, flagged = popcountAnd(acc[:full-lo], b.words[lo:full], flags[min(lo, len(flags)):min(full, len(flags))])
	}
	if full < n {
		a := acc[full-lo] & b.tail
		total += bits.OnesCount64(a)
		flagged += bits.OnesCount64(a & tail)
	}
	return total, flagged
}

// countBitset is the indexed Count path: word-wise AND + popcount per
// shard, sequential (popcounting a shard is far below the parallel
// fan-out's break-even point).
func (v *View) countBitset(refs []Item, ov *Overlay) CountResult {
	var out CountResult
	var buf [4]bmSnap
	for si := range v.shards {
		vs := &v.shards[si]
		if vs.wlo == vs.whi {
			continue // no window row in this shard
		}
		bms, match, _ := vs.condBitmaps(refs, buf[:])
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
func (v *View) clearDriftBitset(refs []Item, ov *Overlay) int {
	cleared := 0
	var cb [4]bmSnap
	for si := range v.shards {
		vs := &v.shards[si]
		if vs.wlo == vs.whi {
			continue // no window row in this shard
		}
		bms, match, _ := vs.condBitmaps(refs, cb[:])
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
	Pos    int // the attribute's position, as an Item names it
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
	swept := 0                           // the values counted: the bitmaps a shard sweeps at most
	for a, at := range attrs {
		out[a] = AttrCounts{Name: at.name, Pos: at.pos, Dict: at.vals, Counts: make([]CountResult, len(at.vals))}
		n := 0
		switch {
		case slices.Contains(fl.Exclude, at.name):
			fillUncounted(out[a].Counts)
		case fl.level() < 0: // every value clears it
			n = len(at.vals) - 1
		default:
			n = v.applyFloor(at.pos, out[a].Counts, fl)
		}
		counting[a], swept = n > 0, swept+n
	}
	var partial [numShards][]idCount
	v.eachShard(swept, func(si int) { partial[si] = v.shards[si].valueCounts(ov, si, attrs, counting, out) })
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
// whose value's row bound fails the floor, returning how many values are
// left to count. The bound sums the row counts of the columns the view
// pinned, read under the shard lock: appends only grow them and Compact and
// tierUp replace columns, so it is never below the view's count. It is
// summed only where the level lists cannot decide: a value no shard lists at
// the floor's level has under 2^level rows in each, which fails the floor;
// a listed one clears it on the listing shards' rows alone, or fails it
// even with 2^level−1 rows from every other shard.
func (v *View) applyFloor(pos int, counts []CountResult, fl Floor) int {
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
	return len(kept)
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
			out = vs.valueScan(ov, si, col, uint32(a), marks, out)
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

// selAttr is one attribute of a group-by: its name, position (column.pos)
// and pinned dictionary.
type selAttr struct {
	name string
	pos  int
	vals []string
}

// Group is one prefix itemset and the values apriori-gen extends it by:
// ExtensionCounts counts Prefix ∪ {e} for each e of Ext. The Ext values are
// distinct and lie on attributes outside the prefix.
type Group struct {
	Prefix, Ext []Item
}

// ExtensionCounts is the count under apriori's levels 2 and up: out[g][k] is
// the window rows matching every value of groups[g].Prefix and
// groups[g].Ext[k], and of those the drift-flagged (ov's flags when
// non-nil). Shards count in parallel, a group at a time: the window is ANDed
// with the prefix's bitmaps once, into a reused buffer, and each extension's
// bitmap is popcounted against it and the drift words. A group with a tiered
// column, or with more than maxValueSweep extensions, walks the prefix's
// rows instead (walkGroup). The shards' dense partials add into one array,
// which out slices by group.
func (v *View) ExtensionCounts(ov *Overlay, groups []Group) [][]CountResult {
	// The distinct extension values, numbered once so a shard snaps each
	// bitmap once however many groups it extends: ext[i] numbers the value
	// of the flat output's slot i.
	num, items, ext, operands := map[Item]int{}, []Item(nil), []int(nil), 0
	for _, g := range groups {
		operands += len(g.Prefix) + len(g.Ext)
		for _, e := range g.Ext {
			j, ok := num[e]
			if !ok {
				j, num[e], items = len(items), len(items), append(items, e)
			}
			ext = append(ext, j)
		}
	}
	var partial [numShards][]CountResult
	v.eachShard(operands, func(si int) { partial[si] = v.shards[si].extCounts(ov, si, groups, items, ext) })
	flat, out := make([]CountResult, len(ext)), make([][]CountResult, len(groups))
	for _, p := range partial {
		for i, c := range p {
			flat[i] = CountResult{Total: flat[i].Total + c.Total, Drift: flat[i].Drift + c.Drift}
		}
	}
	for gi := range groups {
		out[gi], flat = flat[:len(groups[gi].Ext):len(groups[gi].Ext)], flat[len(groups[gi].Ext):]
	}
	return out
}

// extScratch is one shard's state across an extension count's groups: the
// overlay, the window AND a prefix over the words [wlo, whi), every
// extension value and its bitmap (a group's gathered into ext), and the
// walk's tables, built at the first walk: the extension columns, and which
// values the walked group extends by (member: value number → 1-based slot).
type extScratch struct {
	ov       *Overlay
	si       int
	buf      []uint64
	pre      [4]bmSnap
	items    []Item
	bms, ext []bmSnap
	tiered   []bool
	cols     []extCol
	member   []int32
}

// extCol is one column the extension values lie on: its ids and a dense
// table from store id to 1 + the value's number.
type extCol struct {
	ids  []uint32
	slot []int32
}

// extCounts is one shard's share of ExtensionCounts: every group's counts,
// laid out as the call's flat output, whose slot i extends by items[ext[i]].
func (vs *viewShard) extCounts(ov *Overlay, si int, groups []Group, items []Item, ext []int) []CountResult {
	if vs.wlo == vs.whi {
		return nil // no window row in this shard
	}
	out := make([]CountResult, len(ext))
	sc := &extScratch{ov: ov, si: si, buf: make([]uint64, vs.whi-vs.wlo), items: items,
		bms: make([]bmSnap, len(items)), ext: make([]bmSnap, 0, len(items)), tiered: make([]bool, len(items))}
	vs.mu.RLock() // each extension value's bitmap, snapped once; none where the shard holds no column
	for j, e := range items {
		if c, ok := vs.col(e.Pos); ok && c.live.tiered {
			sc.tiered[j] = true
		} else if ok {
			sc.bms[j] = vs.snap(c, e.ID)
		}
	}
	vs.mu.RUnlock()
	for i, gi := 0, 0; gi < len(groups); i, gi = i+len(groups[gi].Ext), gi+1 {
		g, gext, counts := groups[gi], ext[i:i+len(groups[gi].Ext)], out[i:i+len(groups[gi].Ext)]
		pre, match, tiered := vs.condBitmaps(g.Prefix, sc.pre[:])
		sc.ext = sc.ext[:0]
		for _, j := range gext {
			sc.ext, tiered = append(sc.ext, sc.bms[j]), tiered || sc.tiered[j]
		}
		switch {
		case !match:
		case tiered || len(g.Ext) > maxValueSweep:
			vs.walkGroup(sc, g.Prefix, gext, counts)
		default:
			vs.popcountGroup(sc, pre, counts)
		}
	}
	return out
}

// popcountGroup counts a group whose prefix bitmaps are pre and extension
// bitmaps sc.ext: the window AND pre into sc.buf once, then one kernel call
// an extension.
func (vs *viewShard) popcountGroup(sc *extScratch, pre []bmSnap, counts []CountResult) {
	lo, n, fw := vs.wlo, vs.windowEnd(pre), vs.fullWords
	if n <= lo {
		return // a prefix bitmap ends before the window starts
	}
	buf, full := sc.buf[:n-lo], min(n, fw)
	ovWords, tail := sc.ov.words(sc.si), uint64(0)
	if lo < full {
		vs.andWords(buf[:full-lo], pre, lo)
	}
	if full < n {
		buf[full-lo], tail = vs.andWord(pre, full), vs.driftWord(ovWords, full)
	}
	flags := ovWords
	if flags == nil {
		flags = vs.driftBM.words // may end before the window: no drift past its end
	}
	for k, bm := range sc.ext {
		counts[k].Total, counts[k].Drift = bm.andCount(buf, flags, tail, lo, min(bm.effLen(fw), n), fw)
	}
}

// walkGroup counts a group over the prefix's rows, the window rows whose
// prefix columns hold its ids: each looks the extension columns' ids up in
// their dense tables and counts the values the group extends by (gext, by
// value number).
func (vs *viewShard) walkGroup(sc *extScratch, prefix []Item, gext []int, counts []CountResult) {
	if sc.member == nil {
		sc.cols, sc.member = vs.extCols(sc.items), make([]int32, len(sc.items))
	}
	for k, j := range gext {
		sc.member[j] = int32(k) + 1
	}
	vs.eachMatchRow(prefix, func(r int) {
		d := sc.ov.driftAt(vs, sc.si, r)
		for _, c := range sc.cols {
			if id := c.ids[r]; int(id) < len(c.slot) && c.slot[id] != 0 {
				if k := sc.member[c.slot[id]-1]; k != 0 {
					counts[k-1] = addDrift(counts[k-1], d)
				}
			}
		}
	})
	for _, j := range gext {
		sc.member[j] = 0
	}
}

// extCols builds the walk's tables: each column of the shard that an
// extension value lies on, with the values' numbers by store id.
func (vs *viewShard) extCols(items []Item) []extCol {
	cols := make([]extCol, len(vs.cols)) // by attribute position
	for j, e := range items {
		if c, ok := vs.col(e.Pos); ok {
			x := &cols[e.Pos]
			if int(e.ID) >= len(x.slot) {
				x.slot = append(x.slot, make([]int32, int(e.ID)+1-len(x.slot))...)
			}
			x.ids, x.slot[e.ID] = c.ids, int32(j)+1
		}
	}
	return slices.DeleteFunc(cols, func(c extCol) bool { return c.slot == nil })
}

// PairCounts aggregates the totals and drift counts of every two-attribute
// value combination present in the view (excluding the listed attributes).
// Mining counts its pairs through ExtensionCounts, so this is the plain form
// kept for per-layer measurement: one serial walk of the window's rows,
// counting each pair of a row's values under its attributes' indices and
// ids, then each pair's strings built once.
func (v *View) PairCounts(ov *Overlay, exclude map[string]bool) map[PairKey]CountResult {
	v.s.dictMu.RLock()
	attrs := slices.DeleteFunc(v.attrs(), func(a selAttr) bool { return exclude[a.name] })
	v.s.dictMu.RUnlock()
	m, cols := map[[4]uint32]CountResult{}, make([]viewCol, len(attrs))
	for si := range v.shards {
		vs := &v.shards[si]
		for a := range attrs {
			cols[a], _ = vs.col(attrs[a].pos)
		}
		vs.eachWindowRow(func(r int) {
			for a := range cols {
				for b := a + 1; b < len(cols) && cols[a].live != nil && cols[a].ids[r] != 0; b++ {
					if cols[b].live != nil && cols[b].ids[r] != 0 {
						k := [4]uint32{uint32(a), uint32(b), cols[a].ids[r], cols[b].ids[r]}
						m[k] = addDrift(m[k], ov.driftAt(vs, si, r))
					}
				}
			}
		})
	}
	out := make(map[PairKey]CountResult, len(m))
	for k, cr := range m {
		a, b := &attrs[k[0]], &attrs[k[1]]
		out[PairKey{AttrA: a.name, ValA: a.vals[k[2]], AttrB: b.name, ValB: b.vals[k[3]]}] = cr
	}
	return out
}

// addDrift counts one more row into n, drift-flagged when d.
func addDrift(n CountResult, d bool) CountResult {
	n.Total++
	if d {
		n.Drift++
	}
	return n
}

// valueScan counts one column's values that marks does not mark Uncounted
// over the window's rows, appending them to out as attribute a's — the
// group-by of a column with too many such values to popcount or with no
// bitmaps (tiered). marks spans the dictionary; the counts go in a dense
// table by id while that is no larger than 4 slots a window row, in a map
// otherwise (a high-cardinality column over few rows).
func (vs *viewShard) valueScan(ov *Overlay, si int, c viewCol, a uint32, marks []CountResult, out []idCount) []idCount {
	var dense []CountResult
	var sparse map[uint32]CountResult
	if len(marks) <= 4*64*(vs.whi-vs.wlo) {
		dense = make([]CountResult, len(marks))
	} else {
		sparse = map[uint32]CountResult{}
	}
	vs.eachWindowRow(func(r int) {
		switch id := c.ids[r]; {
		case id == 0 || marks[id].Total == Uncounted:
		case dense != nil:
			dense[id] = addDrift(dense[id], ov.driftAt(vs, si, r))
		default:
			sparse[id] = addDrift(sparse[id], ov.driftAt(vs, si, r))
		}
	})
	for id, n := range dense {
		if n.Total > 0 {
			out = append(out, idCount{a, uint32(id), n})
		}
	}
	for id, n := range sparse {
		out = append(out, idCount{a, id, n})
	}
	return out
}
