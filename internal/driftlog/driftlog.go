// Package driftlog implements the cloud-side drift log: the append-only
// table every device reports into and the query surface that root-cause
// analysis mines.
//
// The paper runs this on Amazon Aurora and implements frequent-itemset
// mining as SQL COUNT aggregations. This store provides the identical
// surface — predicate counting over attribute columns within a time
// window, plus a drift-flag overlay for counterfactual analysis — as an
// embedded, dictionary-encoded columnar table with linear-time scans
// (which is what makes Fig. 9d's runtime-vs-rows relationship linear).
//
// To serve fleet-scale ingestion the table is sharded by device: each
// shard is an independent columnar table behind its own lock, so
// concurrent devices append without contending on a global mutex, and
// window queries snapshot every shard once and then scan lock-free.
// Every row also carries a global sequence number, which defines the
// canonical row order (Entry, SampleIDs, WriteTo) so sharding never
// changes observable ordering or the on-disk format.
package driftlog

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nazar/internal/tensor"
)

// Entry is one drift-log row: the detection verdict plus device metadata.
type Entry struct {
	Time time.Time `json:"time"`
	// Attrs carries all categorical metadata: device ID, location,
	// weather, model version, and anything else the deployment
	// records. Attribute names are free-form.
	Attrs map[string]string `json:"attrs"`
	// Drift is the on-device detector's verdict.
	Drift bool `json:"drift"`
	// SampleID links to an uploaded input sample (-1 when the device
	// did not sample this inference).
	SampleID int64 `json:"sample_id"`
}

// Standard attribute names used by the system components.
const (
	AttrDevice   = "device"
	AttrLocation = "location"
	AttrWeather  = "weather"
	AttrModel    = "model"
)

// numShards is the shard count (power of two; shard = hash & shardMask).
const (
	numShards = 16
	shardMask = numShards - 1
)

// column is a dictionary-encoded attribute column. ID 0 is reserved for
// "attribute missing on this row". bits[id] is the value's row bitmap,
// maintained at append time (bits[0] stays nil; trailing zero words are
// omitted, so a bitmap only grows when its value appears).
type column struct {
	ids   []uint32
	dict  []string          // dict[0] == ""
	index map[string]uint32 // value -> id
	bits  [][]uint64        // parallel to dict
	// sketched marks a column whose attribute tiered onto the sketch
	// layer: per-value bitmaps are freed and no longer maintained (ids
	// and dict stay, so the exact row walk still works).
	sketched bool
}

func newColumn(backfill int) *column {
	c := &column{dict: []string{""}, index: map[string]uint32{}, bits: [][]uint64{nil}}
	if backfill > 0 {
		c.ids = make([]uint32, backfill)
	}
	return c
}

func (c *column) idOf(v string) (uint32, bool) {
	id, ok := c.index[v]
	return id, ok
}

func (c *column) intern(v string) uint32 {
	if id, ok := c.index[v]; ok {
		return id
	}
	id := uint32(len(c.dict))
	c.dict = append(c.dict, v)
	c.bits = append(c.bits, nil)
	c.index[v] = id
	return id
}

// shard is one independently locked columnar sub-table.
type shard struct {
	mu        sync.RWMutex
	seqs      []int64 // global sequence numbers (not sorted under concurrency)
	times     []int64 // unix nanos
	drift     []bool
	driftBits []uint64 // bitmap mirror of drift (trailing zero words omitted)
	samples   []int64
	cols      map[string]*column
	order     []string // column names in shard-first-seen order
	// timeSorted tracks whether the shard's timestamps are monotonically
	// non-decreasing (true until an out-of-order append), enabling
	// binary-search window fast paths on views.
	timeSorted bool
	// minTime / maxTime bound the shard's timestamps (meaningful only while
	// the shard holds rows), maintained at append and compaction so Stats
	// never walks the rows.
	minTime, maxTime int64
}

// noteTime folds one appended row's timestamp into the shard's bounds and
// sortedness. Must be called before the row is appended to sh.times.
func (sh *shard) noteTime(t int64) {
	if n := len(sh.times); n == 0 {
		sh.minTime, sh.maxTime = t, t
	} else if t < sh.times[n-1] {
		sh.timeSorted = false
	}
	sh.minTime, sh.maxTime = min(sh.minTime, t), max(sh.maxTime, t)
}

// Store is the drift log. It is safe for concurrent use: appends from
// different devices land on different shards and proceed in parallel.
type Store struct {
	seq    atomic.Int64 // next global sequence number
	shards [numShards]shard

	// compacted counts rows removed by retention compaction (exposed via
	// Stats for the observability layer).
	compacted atomic.Int64

	// compactions counts Compact calls that removed rows. Compaction
	// renumbers rows and rebuilds dictionaries/bitmaps, so any cache keyed
	// on per-shard row counts must include this generation counter.
	compactions atomic.Int64

	// attrMu guards the store-wide attribute registry (first-seen order
	// across all shards) and the per-attribute distinct-value tracking
	// sets behind the sketch tiering decision.
	attrMu    sync.RWMutex
	attrSeen  map[string]bool
	attrOrder []string
	card      map[string]map[string]bool

	// Tiered sketch layer (see sketchindex.go). sketchedPtr holds the
	// immutable snapshot of sketched attribute names; appendColumns loads
	// it once under its read hold of sk.tierMu.
	sk          *sketchIndex
	sketchedPtr atomic.Pointer[map[string]bool]
}

// NewStore returns an empty drift log with the default sketch tiering
// configuration (threshold 4096 — ordinary categorical attributes stay on
// the exact bitset tier).
func NewStore() *Store {
	return NewStoreWithSketch(SketchConfig{})
}

// NewStoreWithSketch returns an empty drift log with the given sketch
// tiering configuration (zero fields take defaults).
func NewStoreWithSketch(cfg SketchConfig) *Store {
	s := &Store{
		attrSeen: map[string]bool{},
		card:     map[string]map[string]bool{},
		sk:       newSketchIndex(cfg),
	}
	for i := range s.shards {
		s.shards[i].cols = map[string]*column{}
		s.shards[i].timeSorted = true
	}
	return s
}

// hashString is FNV-1a.
func hashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range []byte(s) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// Len returns the number of rows.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.times)
		sh.mu.RUnlock()
	}
	return n
}

// MaxSampleID returns the largest sample ID any row links to (-1 when no
// row carries a sample).
func (s *Store) MaxSampleID() int64 {
	maxID := int64(-1)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, id := range sh.samples {
			maxID = max(maxID, id)
		}
		sh.mu.RUnlock()
	}
	return maxID
}

// Stats is an operational snapshot of the store, consumed by the
// observability layer's gauge functions at scrape time.
type Stats struct {
	// Rows is the current row count; ShardRows is its per-shard
	// decomposition (shard balance is the health signal for the
	// device-hash placement).
	Rows      int
	ShardRows []int
	// Attributes is the number of distinct attribute names ever seen.
	Attributes int
	// CompactedRows counts rows removed by retention compaction since
	// the store was created.
	CompactedRows int64
	// OldestTime / NewestTime bound the retained rows' timestamps (zero
	// when the store is empty) — the "snapshot age" of the log.
	OldestTime, NewestTime time.Time
	// IndexBitmaps / IndexWords size the bitset index: live
	// per-(attribute, value) bitmaps (plus drift bitmaps) and the total
	// 64-bit words they hold.
	IndexBitmaps int
	IndexWords   int
	// Sketch tier: attributes answered by sketches, live sub-sketch
	// buckets (pair ring included), total sketch bytes, and buckets
	// folded into "rest" by eviction since the store was created.
	SketchAttrs   int
	SketchBuckets int
	SketchBytes   int64
	SketchEvicted int64
	// SketchFeedRows / SketchFeedKeys count the rows handed to the batch
	// sketch feed (appends and replays) and the distinct keys it added to a
	// Count-Min bucket for them; keys per row falling below the attribute's
	// items per row is the work the feed's grouping saved.
	SketchFeedRows, SketchFeedKeys int64
	// UnsortedShards counts shards whose timestamps stopped being
	// non-decreasing (interleaved writers): views over them materialize
	// windows and sketch edges by row scan instead of binary search.
	UnsortedShards int
}

// Stats returns the current operational snapshot in O(shards × bitmaps):
// row bounds are maintained at append, so no row is visited.
func (s *Store) Stats() Stats {
	st := Stats{ShardRows: make([]int, numShards), CompactedRows: s.compacted.Load()}
	var oldest, newest int64
	seen := false
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.ShardRows[i] = len(sh.times)
		st.Rows += len(sh.times)
		if len(sh.driftBits) > 0 {
			st.IndexBitmaps++
			st.IndexWords += len(sh.driftBits)
		}
		for _, col := range sh.cols {
			for _, bm := range col.bits {
				if bm != nil {
					st.IndexBitmaps++
					st.IndexWords += len(bm)
				}
			}
		}
		if len(sh.times) > 0 {
			if !seen || sh.minTime < oldest {
				oldest = sh.minTime
			}
			if !seen || sh.maxTime > newest {
				newest = sh.maxTime
			}
			seen = true
			if !sh.timeSorted {
				st.UnsortedShards++
			}
		}
		sh.mu.RUnlock()
	}
	s.attrMu.RLock()
	st.Attributes = len(s.attrOrder)
	s.attrMu.RUnlock()
	st.SketchAttrs = len(s.sketchedSet())
	s.sk.collectStats(&st)
	if st.Rows > 0 {
		st.OldestTime = time.Unix(0, oldest).UTC()
		st.NewestTime = time.Unix(0, newest).UTC()
	}
	return st
}

// Attributes returns the attribute names in first-seen order.
func (s *Store) Attributes() []string {
	s.attrMu.RLock()
	defer s.attrMu.RUnlock()
	return append([]string(nil), s.attrOrder...)
}

// rowRef locates one row for cross-shard ordering.
type rowRef struct {
	seq   int64
	shard int
	row   int
}

// orderedRows returns every current row sorted by global sequence.
func (s *Store) orderedRows() []rowRef {
	var refs []rowRef
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for r, seq := range sh.seqs {
			refs = append(refs, rowRef{seq: seq, shard: i, row: r})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(refs, func(a, b int) bool { return refs[a].seq < refs[b].seq })
	return refs
}

// Each invokes f on every current row in canonical (ingest-sequence)
// order. The global ordering is computed once for the whole pass, so a
// full-store sweep is O(n log n) — repeated Entry(i) calls re-derive
// the ordering per call and degrade to O(n² log n) on large logs (the
// chaos harnesses audit six-figure row counts).
func (s *Store) Each(f func(i int, e Entry)) {
	refs := s.orderedRows()
	for i, ref := range refs {
		sh := &s.shards[ref.shard]
		sh.mu.RLock()
		e := sh.entryLocked(ref.row)
		sh.mu.RUnlock()
		f(i, e)
	}
}

// Entry reconstructs the i-th row in canonical (ingest-sequence) order —
// for display, debugging and persistence tests.
func (s *Store) Entry(i int) Entry {
	refs := s.orderedRows()
	ref := refs[i]
	sh := &s.shards[ref.shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.entryLocked(ref.row)
}

func (sh *shard) entryLocked(i int) Entry {
	e := Entry{
		Time:     time.Unix(0, sh.times[i]).UTC(),
		Drift:    sh.drift[i],
		SampleID: sh.samples[i],
		Attrs:    map[string]string{},
	}
	for _, name := range sh.order {
		col := sh.cols[name]
		if id := col.ids[i]; id != 0 {
			e.Attrs[name] = col.dict[id]
		}
	}
	return e
}

// Cond is an equality predicate on one attribute.
type Cond struct {
	Attr  string
	Value string
}

// viewCol pins one shard column at snapshot time. bits pins the value
// bitmaps, parallel to dict. sketched columns carry no bitmaps — queries
// on them are answered by the sketch layer or by the exact row walk over
// the retained ids (see View.tier).
type viewCol struct {
	ids      []uint32
	dict     []string
	bits     []bmSnap
	sketched bool
	index    *dictIndex
}

// dictIndex is the value → ID hash index over one pinned dictionary. The
// live column's own index map keeps mutating under appends, so the view
// builds its own from the pinned dict on the first lookup (views that
// never resolve a value on this column pay nothing) and every later query
// on the view shares it.
type dictIndex struct {
	once sync.Once
	ids  map[string]uint32
}

// lookup resolves a value to its dictionary ID (0 = not present).
func (c viewCol) lookup(v string) uint32 {
	c.index.once.Do(func() {
		c.index.ids = make(map[string]uint32, len(c.dict))
		for id := 1; id < len(c.dict); id++ {
			c.index.ids[c.dict[id]] = uint32(id)
		}
	})
	return c.index.ids[v]
}

// viewShard is the immutable snapshot of one shard: slice headers pinned
// at creation, so scans touch no locks and concurrent appends (which only
// write beyond the pinned lengths) never shift results mid-analysis. The
// same argument pins the bitset index: appends only mutate the word
// covering the row being written, so the fully populated word prefix is
// shared by reference and the single partial word at the pinned row
// boundary is copied by value (bmSnap.tail) under the shard lock.
type viewShard struct {
	offset  int // base index of this shard's rows in the view's row numbering
	rows    int
	seqs    []int64
	times   []int64
	drift   []bool
	samples []int64
	cols    map[string]viewCol

	// Bitset index.
	fullWords int    // rows / 64
	window    bmSnap // rows passing the view's window predicate
	driftBM   bmSnap // stored drift flags
	// wlo / whi bound the window bitmap's non-zero words (the tail counts
	// as word fullWords): every bitset loop runs over [wlo, whi), so a
	// query costs the words the window spans, not the words the log holds.
	wlo, whi int

	// Delta-view predicate (Since): a row qualifies when it is new
	// (row index >= minRow) or was previously outside the window's upper
	// bound (time >= prevTo). Zero minRow accepts every in-window row.
	minRow int
	prevTo int64

	// sorted pins the shard's timestamp monotonicity at snapshot time,
	// enabling binary-search window materialization and edge scans.
	sorted bool
}

// View is a read-only window over the store: the rows whose timestamps
// fall in [From, To). A zero From/To means unbounded on that side.
//
// A View snapshots every shard at creation time; all subsequent reads are
// lock-free and unaffected by concurrent appends. Overlays returned by
// DriftOverlay are indexed by the view's own row numbering and must only
// be passed back to the view that produced them.
type View struct {
	from, to int64
	attrs    map[string]bool // attribute registry pinned at creation
	total    int
	shards   [numShards]viewShard

	// Sketch layer pinned at creation: the sketched-attribute snapshot
	// and the live sketch index. delta marks Since-derived views, which
	// the sketches cannot answer (they cover whole windows, not row
	// deltas) — those walk the window's rows for sketched attributes.
	sk       *sketchIndex
	sketched map[string]bool
	delta    bool

	// skWin is the window resolved against the sketch rings, built by the
	// first sketch-answered query (see sketchWindow).
	skOnce sync.Once
	skWin  sketchWindow
}

// Window returns a view over [from, to). Zero times are unbounded. The
// view carries a pinned snapshot of the bitset index, so Count,
// ClearDrift and AttrValueCounts run as word-wise AND + popcount.
func (s *Store) Window(from, to time.Time) *View {
	v := &View{attrs: map[string]bool{}, sk: s.sk}
	s.attrMu.RLock()
	for _, name := range s.attrOrder {
		v.attrs[name] = true
	}
	s.attrMu.RUnlock()
	if !from.IsZero() {
		v.from = from.UnixNano()
	}
	if to.IsZero() {
		v.to = 1<<63 - 1
	} else {
		v.to = to.UnixNano()
	}
	offset := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		rows := len(sh.times)
		vs := viewShard{
			offset:  offset,
			rows:    rows,
			seqs:    sh.seqs[:rows],
			times:   sh.times[:rows],
			drift:   sh.drift[:rows],
			samples: sh.samples[:rows],
			cols:    make(map[string]viewCol, len(sh.cols)),
			sorted:  sh.timeSorted,
		}
		fw := rows >> 6
		rem := uint(rows & 63)
		vs.driftBM = snapBitmap(sh.driftBits, fw, rem)
		for name, col := range sh.cols {
			if col.sketched {
				vs.cols[name] = viewCol{ids: col.ids[:rows], dict: col.dict, sketched: true, index: new(dictIndex)}
				continue
			}
			nvals := len(col.dict)
			bits := make([]bmSnap, nvals)
			for id := 1; id < nvals; id++ {
				bits[id] = snapBitmap(col.bits[id], fw, rem)
			}
			vs.cols[name] = viewCol{ids: col.ids[:rows], dict: col.dict[:nvals], bits: bits, index: new(dictIndex)}
		}
		sh.mu.RUnlock()
		v.shards[i] = vs
		// Outside the lock: reads only the pinned times.
		v.shards[i].buildWindowBM(v)
		offset += rows
	}
	v.total = offset
	// Loaded after the shards are pinned: a tier-up that freed a column's
	// bitmaps in a shard pinned above has installed the attribute's ring and
	// published it in this set by now, so no pinned column is without both.
	v.sketched = s.sketchedSet()
	return v
}

// buildWindowBM materializes the shard's window-predicate bitmap (one
// pass over the pinned timestamps; skipped entirely for unbounded
// views).
func (vs *viewShard) buildWindowBM(v *View) {
	fw := vs.rows >> 6
	rem := uint(vs.rows & 63)
	vs.fullWords = fw
	words := make([]uint64, fw)
	var tail uint64
	if v.from == 0 && v.to == 1<<63-1 && vs.minRow == 0 {
		for i := range words {
			words[i] = ^uint64(0)
		}
		if rem > 0 {
			tail = 1<<rem - 1
		}
	} else if vs.sorted {
		// Sorted shard: the window predicate selects one contiguous row
		// range — [from, to) becomes [lo, hi) by binary search, and the
		// delta predicate (i >= minRow || t >= prevTo) collapses to
		// i >= min(minRow, first row with t >= prevTo). Materialization
		// is O(rows/64) instead of O(rows), which is what keeps delta
		// views over a grown log proportional to the delta.
		lo := sort.Search(vs.rows, func(i int) bool { return vs.times[i] >= v.from })
		hi := vs.rows
		if v.to != 1<<63-1 {
			hi = sort.Search(vs.rows, func(i int) bool { return vs.times[i] >= v.to })
		}
		if vs.minRow > 0 {
			pTo := sort.Search(vs.rows, func(i int) bool { return vs.times[i] >= vs.prevTo })
			m := vs.minRow
			if pTo < m {
				m = pTo
			}
			if m > lo {
				lo = m
			}
		}
		tail = setBitRange(words, tail, fw, lo, hi)
	} else {
		for i := 0; i < vs.rows; i++ {
			if !vs.inWindow(v, i) {
				continue
			}
			if w := i >> 6; w < fw {
				words[w] |= 1 << (uint(i) & 63)
			} else {
				tail |= 1 << (uint(i) & 63)
			}
		}
	}
	vs.window = bmSnap{words: words, tail: tail}
	vs.whi = vs.window.effLen(fw)
	for vs.whi > 0 && vs.window.word(vs.whi-1, fw) == 0 {
		vs.whi--
	}
	vs.wlo = 0
	for vs.wlo < vs.whi && vs.window.word(vs.wlo, fw) == 0 {
		vs.wlo++
	}
}

// setBitRange sets bits [lo, hi) across the word array plus the logical
// tail word at index fw, filling covered words wholesale. Returns the
// updated tail.
func setBitRange(words []uint64, tail uint64, fw, lo, hi int) uint64 {
	set := func(w int, mask uint64) {
		if w < fw {
			words[w] |= mask
		} else {
			tail |= mask
		}
	}
	for lo < hi {
		w := lo >> 6
		end := (w + 1) << 6
		if end > hi {
			end = hi
		}
		mask := ^uint64(0)
		if b := uint(lo) & 63; b > 0 {
			mask &^= 1<<b - 1
		}
		if r := uint(end) & 63; r > 0 {
			mask &= 1<<r - 1
		}
		set(w, mask)
		lo = end
	}
	return tail
}

// All returns a view over every row currently in the store.
func (s *Store) All() *View { return s.Window(time.Time{}, time.Time{}) }

// Bounds returns the view's window as unix nanos (to is 1<<63-1 when
// unbounded) — the identity half of an analysis-cache key.
func (v *View) Bounds() (from, to int64) { return v.from, v.to }

// ShardRows returns the per-shard pinned row counts — the watermark half
// of an analysis-cache key. Shards are append-only between compactions,
// so a previous view's rows form a stable prefix of a later view's.
func (v *View) ShardRows() []int {
	out := make([]int, numShards)
	for i := range v.shards {
		out[i] = v.shards[i].rows
	}
	return out
}

// Since derives the delta view of a grown window from the same pinned
// snapshot: the rows of v that a previous view with per-shard row counts
// prevRows and upper bound prevTo (unix nanos) did not contain — either
// appended after it (row index >= prevRows[shard]) or previously beyond
// its upper bound (time >= prevTo, for cumulative windows whose `to`
// advances). Counts over the delta add to the previous view's counts to
// give v's, which is what incremental mining exploits. prevRows must
// come from ShardRows of a view of the same store with no intervening
// compaction.
func (v *View) Since(prevRows []int, prevTo int64) (*View, error) {
	if len(prevRows) != numShards {
		return nil, fmt.Errorf("driftlog: Since: got %d shard watermarks, want %d", len(prevRows), numShards)
	}
	d := &View{from: v.from, to: v.to, attrs: v.attrs, total: v.total,
		sk: v.sk, sketched: v.sketched, delta: true}
	d.shards = v.shards
	for si := range d.shards {
		vs := &d.shards[si]
		if prevRows[si] < 0 || prevRows[si] > vs.rows {
			return nil, fmt.Errorf("driftlog: Since: shard %d watermark %d out of range [0,%d]", si, prevRows[si], vs.rows)
		}
		vs.minRow = prevRows[si]
		vs.prevTo = prevTo
		vs.buildWindowBM(d)
	}
	return d, nil
}

// parallelScanRows is the pinned-row count above which per-shard scans
// fan out over the worker pool.
const parallelScanRows = 2048

// eachShard runs f(i) for every shard, in parallel when the view is large
// enough (and the pool is wider than one worker). f writes only to
// per-shard slots, so scheduling never affects results.
func (v *View) eachShard(f func(i int)) {
	if v.total < parallelScanRows || tensor.Workers() <= 1 {
		for i := range v.shards {
			f(i)
		}
		return
	}
	tensor.ParallelFor(numShards, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// inWindow reports whether row i of the shard falls inside the view
// (including the delta predicate of Since-derived views). buildWindowBM
// evaluates it once per row of an unsorted shard; every query after that
// reads the window bitmap.
func (vs *viewShard) inWindow(v *View, i int) bool {
	t := vs.times[i]
	if t < v.from || t >= v.to {
		return false
	}
	return i >= vs.minRow || t >= vs.prevTo
}

// Len returns the number of rows inside the view.
func (v *View) Len() int {
	n := 0
	for si := range v.shards {
		vs := &v.shards[si]
		for w := vs.wlo; w < vs.whi; w++ {
			n += onesCount(vs.window.word(w, vs.fullWords))
		}
	}
	return n
}

// CountResult is the aggregate FIM consumes.
type CountResult struct {
	Total int // rows matching the predicate
	Drift int // of those, rows flagged as drift
}

// tier is the way a query is answered. View.tier is the one place that
// picks it, and this table is the whole routing (DESIGN.md §5g has each
// cell's cost, in words or rows of the window — never of the log):
//
//	query            tierBitset (exact)     tierSketch (one-sided)   tierRows (exact)
//	Count            countBitset            countSketch              countRows
//	ClearDrift       clearDriftBitset       clearDriftRows: a clear  clearDriftRows
//	                                        is never approximate
//	AttrValueCounts  attrValueCountsBitset  attrValueCountsSketch    valueScanInto
//	PairCounts       viewShard.pairCounts   pairCountsSketch         pairScanInto
//	Approx           false                  true, the ring's bound   false
//	SampleIDs        —                      —                        eachMatch
//
// The two group-bys answer their exact-tier attributes from the bitmaps, or
// from one walk of the window's rows where the values (pairs: the kept cross
// product) outnumber what popcounting pays for, whatever the tier; the tier
// decides their sketched attributes (pairs with a sketched side) only.
type tier uint8

const (
	tierBitset tier = iota // word-wise AND + popcount over the value bitmaps
	tierSketch             // Count-Min over covered buckets + exact edge rows
	tierRows               // walk of the window's rows over the retained ids
)

// tier picks the tier of a query that touches (sketched) or does not touch
// an attribute on the sketch tier. The sketches aggregate whole windows of
// stored drift flags, so they answer neither a Since delta nor an overlay
// that a ClearDrift has mutated (epoch > 0); those walk the rows.
func (v *View) tier(sketched bool, ov *Overlay) tier {
	switch {
	case !sketched:
		return tierBitset
	case !v.delta && (ov == nil || ov.Epoch() == 0):
		return tierSketch
	}
	return tierRows
}

// colCond is one resolved equality predicate on a shard snapshot.
type colCond struct {
	ids []uint32
	id  uint32
}

// lookupCond resolves one condition to the shard's column and the value's
// dictionary ID. ok=false means the condition can never match in this
// shard (column or value absent there).
func (vs *viewShard) lookupCond(c Cond) (col viewCol, id uint32, ok bool) {
	if col, ok = vs.cols[c.Attr]; !ok {
		return col, 0, false
	}
	id = col.lookup(c.Value)
	return col, id, id != 0
}

// eachMatch is the exact tier's row primitive: f(si, vs, i) for every
// window row i of every shard that satisfies all the conditions, rows in
// order within a shard, shards in parallel on large views — so f may write
// per-shard slots only. The walk is over the window bitmap's words
// [wlo, whi): it costs the rows the window holds, wherever in the log the
// window lies. An attribute unknown to the whole store is an error,
// whichever shard a value landed in.
func (v *View) eachMatch(conds []Cond, f func(si int, vs *viewShard, i int)) error {
	if err := v.checkConds(conds); err != nil {
		return err
	}
	v.eachShard(func(si int) {
		vs := &v.shards[si]
		ccs := make([]colCond, 0, len(conds))
		for _, c := range conds {
			col, id, ok := vs.lookupCond(c)
			if !ok {
				return
			}
			ccs = append(ccs, colCond{ids: col.ids, id: id})
		}
		vs.eachWindowRow(func(i int) {
			for _, cc := range ccs {
				if cc.ids[i] != cc.id {
					return
				}
			}
			f(si, vs, i)
		})
	})
	return nil
}

// Count aggregates rows matching every condition. The overlay, if
// non-nil, replaces the stored drift flags — the hook counterfactual
// analysis uses to "mark" entries as non-drift without mutating the log.
func (v *View) Count(conds []Cond, ov *Overlay) (CountResult, error) {
	switch v.tier(v.condSketched(conds), ov) {
	case tierSketch:
		return v.countSketch(conds, ov)
	case tierRows:
		return v.countRows(conds, ov)
	}
	return v.countBitset(conds, ov)
}

func (v *View) countRows(conds []Cond, ov *Overlay) (CountResult, error) {
	var partial [numShards]CountResult
	err := v.eachMatch(conds, func(si int, vs *viewShard, i int) {
		partial[si].Total++
		if ov.driftAt(vs, si, i) {
			partial[si].Drift++
		}
	})
	var out CountResult
	for _, p := range partial {
		out.Total += p.Total
		out.Drift += p.Drift
	}
	return out, err
}

// ClearDrift clears the overlaid drift flag of every in-window row
// matching the conditions, returning how many flags were cleared. A
// mutating call stamps the overlay with a fresh epoch (see
// Overlay.Epoch).
func (v *View) ClearDrift(conds []Cond, ov *Overlay) (int, error) {
	if v.tier(v.condSketched(conds), ov) == tierBitset {
		return v.clearDriftBitset(conds, ov)
	}
	return v.clearDriftRows(conds, ov)
}

func (v *View) clearDriftRows(conds []Cond, ov *Overlay) (int, error) {
	var cleared [numShards]int
	err := v.eachMatch(conds, func(si int, _ *viewShard, i int) {
		words := ov.materialize(si) // per-shard slots: safe under the fan-out
		if bit := uint64(1) << (uint(i) & 63); words[i>>6]&bit != 0 {
			words[i>>6] &^= bit
			cleared[si]++
		}
	})
	n := 0
	for _, c := range cleared {
		n += c
	}
	if n > 0 {
		ov.bump()
	}
	return n, err
}

// AttrValueCounts returns, for each attribute, the per-value totals and
// drift counts inside the view — the single-pass aggregation the first
// apriori level needs (one "SQL GROUP BY" per attribute).
func (v *View) AttrValueCounts(ov *Overlay) map[string]map[string]CountResult {
	t := v.tier(len(v.sketched) > 0, ov)
	out := v.attrValueCountsBitset(ov, t)
	if t == tierSketch {
		v.attrValueCountsSketch(out)
	}
	return out
}

// namedCol pairs a shard column with its attribute name.
type namedCol struct {
	name string
	c    viewCol
}

// sortedCols collects the shard's non-excluded columns in name order,
// so pair keys come out canonical (AttrA < AttrB).
func (vs *viewShard) sortedCols(exclude map[string]bool) []namedCol {
	cols := make([]namedCol, 0, len(vs.cols))
	for name, c := range vs.cols {
		if exclude[name] {
			continue
		}
		cols = append(cols, namedCol{name, c})
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].name < cols[j].name })
	return cols
}

// PairKey identifies a two-attribute value combination (attributes in
// lexicographic order).
type PairKey struct {
	AttrA, ValA string
	AttrB, ValB string
}

// Conds returns the pair as query conditions.
func (k PairKey) Conds() []Cond {
	return []Cond{{Attr: k.AttrA, Value: k.ValA}, {Attr: k.AttrB, Value: k.ValB}}
}

// PairCounts aggregates the totals and drift counts of every
// two-attribute value combination present in the view (excluding the
// listed attributes): PairCountsMasked with every value of every other
// attribute kept.
func (v *View) PairCounts(ov *Overlay, exclude map[string]bool) map[PairKey]CountResult {
	return v.pairCounts(ov, pairSel{exclude: exclude})
}

// PairCountsMasked aggregates the two-attribute value combinations whose
// both values the mask keeps — the level-2 pass of apriori, which hands in
// the level-1 survivors so that nothing downward closure already ruled out
// is counted or materialized. The result equals PairCounts filtered by the
// mask, on every tier.
func (v *View) PairCountsMasked(ov *Overlay, mask ValueMask) map[PairKey]CountResult {
	if mask == nil {
		mask = ValueMask{} // keeps nothing; a nil pairSel.mask would keep everything
	}
	return v.pairCounts(ov, pairSel{mask: mask})
}

// SampleIDs returns the sample IDs (≥ 0 only) of in-window rows matching
// the conditions, in canonical (ingest-sequence) row order — how
// adaptation gathers the uploaded images of a root cause.
func (v *View) SampleIDs(conds []Cond) ([]int64, error) {
	type hit struct {
		seq int64
		id  int64
	}
	var partial [numShards][]hit
	err := v.eachMatch(conds, func(si int, vs *viewShard, i int) {
		if vs.samples[i] >= 0 {
			partial[si] = append(partial[si], hit{seq: vs.seqs[i], id: vs.samples[i]})
		}
	})
	if err != nil {
		return nil, err
	}
	var hits []hit
	for si := range partial {
		hits = append(hits, partial[si]...)
	}
	sort.Slice(hits, func(a, b int) bool { return hits[a].seq < hits[b].seq })
	var out []int64
	for _, h := range hits {
		out = append(out, h.id)
	}
	return out, nil
}
