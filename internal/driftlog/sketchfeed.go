// Batch sketch feed: the one path by which rows reach the sketch rings —
// an append's batch, and the shard-sized chunks of a tier-up or compaction
// replay. A batch is grouped in id space first: per sketched column by
// (bucket, dict id), per name-ordered column pair with a sketched side by
// (bucket, idA, idB). Each distinct key is built and hashed once and added
// to its Count-Min bucket with its (total, drift) multiplicity — Count-Min
// is linear, so the cells are those of one add per row — and each ring's
// lock is taken once per bucket the batch touches. Space-Saving, the only
// order-sensitive structure, receives the offer sequence rows fed one at a
// time would give it (rows in the given order, columns name-sorted), from
// the cached key strings, under one lock per ring.
//
// Cost per batch: distinct keys × (1 key build + 1 hash + depth cell adds)
// + rows × items × (1 group probe + 1 Space-Saving offer), where items =
// sketched columns + pairs with a sketched side.
package driftlog

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// feedGroup is one distinct key of the batch on one ring.
type feedGroup struct {
	bkt          int32  // index into feedScratch.aligned
	first        int32  // offer position of the first row carrying the key
	ida, idb     uint32 // batch dict ids; idb is 0 on a value ring
	total, drift uint32
	key          string
}

// feedScratch is the working state of one feedBatch, pooled: group table,
// key cache (feedGroup.key) and offer list are reused across batches.
type feedScratch struct {
	cols     []int32 // batch column indices in name order
	sketched []bool  // parallel to cols
	bucket   []int32 // offer position -> index into aligned
	aligned  []int64 // distinct bucket-aligned times, first-seen order

	// table is the open-addressed (bucket, ida, idb) -> group index + 1
	// map of the item being grouped (one sketched column or column pair),
	// cleared between items.
	table []int32
	shift uint
	// groups holds the item's groups on a value ring, every pair item's on
	// the pair ring (its Count-Min adds wait for the last item).
	groups []feedGroup
	pairs  [][2]int32 // pair ring items: positions in cols, name-ordered
	occ    []int32    // pair ring: offer position × pair item -> group index + 1
	offers []string

	// addGroups' bucket-major arrangement of groups.
	bucketEnd   []int32
	bucketFirst []int32
	bucketOrder []int32
	byBucket    []int32
}

var feedPool = sync.Pool{New: func() any { return new(feedScratch) }}

// grow returns s with length n, reallocating only when capacity is short.
// Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// feedBatch feeds b's rows to the sketch rings in the given row order. It
// takes no shard lock; callers hold tierMu (read mode on the append path,
// write mode for a rebuild), which is what keeps a row from being fed both
// by its append and by a replay.
func (sk *sketchIndex) feedBatch(sketched map[string]bool, b *ColumnarBatch, order []int32) {
	if len(order) == 0 || !slices.ContainsFunc(b.Cols, func(c ColumnData) bool { return sketched[c.Name] }) {
		return
	}
	f := feedPool.Get().(*feedScratch)
	defer feedPool.Put(f)

	f.cols, f.sketched = f.cols[:0], f.sketched[:0]
	for ci := range b.Cols {
		f.cols = append(f.cols, int32(ci))
	}
	slices.SortFunc(f.cols, func(x, y int32) int { return cmp.Compare(b.Cols[x].Name, b.Cols[y].Name) })
	for _, ci := range f.cols {
		f.sketched = append(f.sketched, sketched[b.Cols[ci].Name])
	}

	// Bucket of every offer position. Rows mostly share their neighbour's
	// bucket; the distinct ones of a batch are few enough to search.
	f.bucket, f.aligned = grow(f.bucket, len(order)), f.aligned[:0]
	for pos, r := range order {
		a := alignDown(b.Times[r], int64(sk.cfg.Bucket))
		if pos > 0 && a == f.aligned[f.bucket[pos-1]] {
			f.bucket[pos] = f.bucket[pos-1]
			continue
		}
		i := slices.Index(f.aligned, a)
		if i < 0 {
			i = len(f.aligned)
			f.aligned = append(f.aligned, a)
		}
		f.bucket[pos] = int32(i)
	}
	bits := uint(4)
	for 1<<bits < 2*len(order) {
		bits++
	}
	f.table, f.shift = grow(f.table, 1<<bits), 64-bits

	keys := f.feedValueRings(sk, b, order) + f.feedPairRing(sk, b, order)
	sk.feedRows.Add(int64(len(order)))
	sk.feedKeys.Add(int64(keys))
}

// feedValueRings feeds each sketched column's value ring — one item per
// column — and returns the distinct keys added.
func (f *feedScratch) feedValueRings(sk *sketchIndex, b *ColumnarBatch, order []int32) (keys int) {
	for i, ci := range f.cols {
		if !f.sketched[i] {
			continue
		}
		col := &b.Cols[ci]
		f.groups, f.offers = f.groups[:0], f.offers[:0]
		clear(f.table)
		for pos, r := range order {
			if id := col.IDs[r]; id != 0 {
				f.group(f.bucket[pos], id, 0, int32(pos), b.Drift[r])
				f.offers = append(f.offers, col.Dict[id])
			}
		}
		if len(f.groups) == 0 {
			continue
		}
		for gi := range f.groups {
			f.groups[gi].key = col.Dict[f.groups[gi].ida]
		}
		ring := sk.attr(col.Name)
		f.addGroups(ring)
		ring.hh.OfferEach(f.offers)
		keys += len(f.groups)
	}
	return keys
}

// feedPairRing feeds the pair ring — one item per name-ordered column pair
// with a sketched side — and returns the distinct keys added. A row offers
// its pairs in item order, so the items' group indices are laid out
// row-major in occ and read back row by row; the Count-Min adds wait for
// the last item, so the ring is locked once per bucket, not per item.
func (f *feedScratch) feedPairRing(sk *sketchIndex, b *ColumnarBatch, order []int32) (keys int) {
	f.pairs = f.pairs[:0]
	for i := range f.cols {
		for j := i + 1; j < len(f.cols); j++ {
			if f.sketched[i] || f.sketched[j] {
				f.pairs = append(f.pairs, [2]int32{f.cols[i], f.cols[j]})
			}
		}
	}
	f.groups = f.groups[:0]
	f.occ = grow(f.occ, len(order)*len(f.pairs))
	clear(f.occ)
	for item, p := range f.pairs {
		ca, cb := &b.Cols[p[0]], &b.Cols[p[1]]
		start := len(f.groups)
		clear(f.table)
		for pos, r := range order {
			if ida, idb := ca.IDs[r], cb.IDs[r]; ida != 0 && idb != 0 {
				gi := f.group(f.bucket[pos], ida, idb, int32(pos), b.Drift[r])
				f.occ[pos*len(f.pairs)+item] = int32(gi) + 1
			}
		}
		for gi := start; gi < len(f.groups); gi++ {
			g := &f.groups[gi]
			g.key = pairSketchKey(ca.Name, ca.Dict[g.ida], cb.Name, cb.Dict[g.idb])
		}
	}
	if len(f.groups) == 0 {
		return 0
	}
	f.offers = f.offers[:0]
	for _, gi := range f.occ {
		if gi != 0 {
			f.offers = append(f.offers, f.groups[gi-1].key)
		}
	}
	ring := sk.pairRing()
	f.addGroups(ring)
	ring.hh.OfferEach(f.offers)
	return len(f.groups)
}

// group counts one row, at offer position pos, into the current item's
// group (bkt, ida, idb) — appended to f.groups on first sight — and returns
// the group's index.
func (f *feedScratch) group(bkt int32, ida, idb uint32, pos int32, drifted bool) int {
	h := (uint64(ida)<<32 | uint64(idb)) ^ uint64(bkt)<<24
	mask := len(f.table) - 1
	i := int(h * 0x9e3779b97f4a7c15 >> f.shift)
	for ; f.table[i] != 0; i = (i + 1) & mask {
		if g := &f.groups[f.table[i]-1]; g.ida == ida && g.idb == idb && g.bkt == bkt {
			break
		}
	}
	if f.table[i] == 0 {
		f.groups = append(f.groups, feedGroup{bkt: bkt, first: pos, ida: ida, idb: idb})
		f.table[i] = int32(len(f.groups))
	}
	g := &f.groups[f.table[i]-1]
	g.total++
	if drifted {
		g.drift++
	}
	return int(f.table[i]) - 1
}

// addGroups adds f.groups to ring's Count-Min buckets, one lock acquisition
// per bucket. Buckets are taken in the order rows fed one at a time would
// first have reached them: a full ring folds its oldest bucket whenever a
// new one is created, so creation order decides what is folded when — the
// mass ends up in the same buckets either way, the evicted count does not.
func (f *feedScratch) addGroups(ring *attrSketch) {
	nb := len(f.aligned)
	f.bucketEnd, f.bucketFirst = grow(f.bucketEnd, nb), grow(f.bucketFirst, nb)
	for i := range f.bucketEnd {
		f.bucketEnd[i], f.bucketFirst[i] = 0, math.MaxInt32
	}
	for gi := range f.groups {
		g := &f.groups[gi]
		f.bucketEnd[g.bkt]++
		f.bucketFirst[g.bkt] = min(f.bucketFirst[g.bkt], g.first)
	}
	f.bucketOrder = f.bucketOrder[:0]
	sum := int32(0)
	for bkt, n := range f.bucketEnd {
		if n > 0 {
			f.bucketOrder = append(f.bucketOrder, int32(bkt))
		}
		f.bucketEnd[bkt] = sum // start for now; advanced to end by the placement below
		sum += n
	}
	f.byBucket = grow(f.byBucket, len(f.groups))
	for gi := range f.groups {
		bkt := f.groups[gi].bkt
		f.byBucket[f.bucketEnd[bkt]] = int32(gi)
		f.bucketEnd[bkt]++
	}
	slices.SortFunc(f.bucketOrder, func(x, y int32) int { return cmp.Compare(f.bucketFirst[x], f.bucketFirst[y]) })
	for _, bkt := range f.bucketOrder {
		lo := int32(0)
		if bkt > 0 {
			lo = f.bucketEnd[bkt-1]
		}
		ring.addBucket(f.aligned[bkt], f.groups, f.byBucket[lo:f.bucketEnd[bkt]])
	}
}
