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
// canonical row order (Each, Entry) so sharding never changes observable
// ordering or the on-disk format. Samples and SampleIDs order by sample
// ID instead, which is persisted, so a replayed store returns a cause's
// samples in the order the live store did.
package driftlog

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// column is one shard's slice of an attribute: ids[row] is the row's store
// id (0 = attribute missing). bits[id] is that value's row bitmap in the
// shard (trailing zero words omitted; none on a tiered column, tier.go) and
// rows[id] its row count, apart so the collector never scans counts.
// levels[k] lists the ids with at least 2^k rows, in the order they got
// there: levels[0] is every value the shard holds, which the group-bys route
// on, and AttrValueCounts' floor finds its candidates in a higher one. Rows a
// view pinned never change and counts only grow: tierUp and Compact replace
// columns instead.
type column struct {
	pos    int // the attribute's position in Store.attrOrder
	ids    []uint32
	bits   [][]uint64
	rows   []uint32
	levels [][]uint32
	tiered bool
}

// add appends one row's store id (0 = attribute missing).
func (c *column) add(id uint32) {
	row := len(c.ids)
	c.ids = append(c.ids, id)
	if id == 0 {
		return
	}
	if int(id) >= len(c.rows) {
		c.rows = append(c.rows, make([]uint32, int(id)+1-len(c.rows))...)
	}
	c.rows[id]++
	if n := c.rows[id]; n&(n-1) == 0 { // a power of two: the value reached a level
		k := bits.TrailingZeros32(n)
		if k == len(c.levels) {
			c.levels = append(c.levels, nil)
		}
		c.levels[k] = append(c.levels[k], id)
	}
	if c.tiered {
		return
	}
	if int(id) >= len(c.bits) {
		c.bits = append(c.bits, make([][]uint64, int(id)+1-len(c.bits))...)
	}
	c.bits[id] = setBit(c.bits[id], row)
}

// held lists the values the column holds, first seen first.
func (c *column) held() []uint32 {
	if len(c.levels) == 0 {
		return nil
	}
	return c.levels[0]
}

// pad backfills the column with missing rows up to rows.
func (c *column) pad(rows int) {
	if n := len(c.ids); n < rows {
		c.ids = append(c.ids, make([]uint32, rows-n)...)
	}
}

// shard is one independently locked columnar sub-table.
type shard struct {
	mu        sync.RWMutex
	seqs      []int64 // global sequence numbers (not sorted under concurrency)
	times     []int64 // unix nanos
	drift     []bool
	driftBits []uint64 // bitmap mirror of drift (trailing zero words omitted)
	samples   []int64
	// sampleRows lists, ascending, the rows that carry an uploaded vector;
	// sampleVecs[k] is row sampleRows[k]'s vector. Sparse, so a row
	// without a sample costs nothing here.
	sampleRows []int
	sampleVecs [][]float64
	cols       map[string]*column
	order      []string // column names in shard-first-seen order
	// minTime / maxTime bound the shard's timestamps (meaningful only while
	// the shard holds rows), maintained at append and compaction so Stats
	// never walks the rows.
	minTime, maxTime int64
	// wmin[w] / wmax[w] bound the timestamps of the rows bitmap word w
	// covers (rows [64w, 64w+64)), so a view builds its window bitmap from
	// the words, reading timestamps only in the words a bound cuts.
	wmin, wmax []int64
}

// noteTime folds one appended row's timestamp into the shard's bounds and
// its word's. Must be called before the row is appended to sh.times.
func (sh *shard) noteTime(t int64) {
	n := len(sh.times)
	if n == 0 {
		sh.minTime, sh.maxTime = t, t
	}
	sh.minTime, sh.maxTime = min(sh.minTime, t), max(sh.maxTime, t)
	if n&63 == 0 {
		sh.wmin, sh.wmax = append(sh.wmin, t), append(sh.wmax, t)
		return
	}
	w := n >> 6
	sh.wmin[w], sh.wmax[w] = min(sh.wmin[w], t), max(sh.wmax[w], t)
}

// Store is the drift log. It is safe for concurrent use: appends from
// different devices land on different shards and proceed in parallel.
type Store struct {
	seq    atomic.Int64 // next global sequence number
	shards [numShards]shard

	// compacted counts rows removed by retention compaction (exposed via
	// Stats for the observability layer).
	compacted atomic.Int64

	// samplesAdded counts the vectors appended since the store was created
	// (replays included).
	samplesAdded atomic.Int64

	// compactions counts Compact calls that removed rows. Compaction
	// renumbers rows and rebuilds dictionaries/bitmaps, so any cache keyed
	// on per-shard row counts must include this generation counter.
	compactions atomic.Int64

	// cutoff is the largest cutoff Compact has been given, in unix nanos
	// (math.MinInt64 before the first): the retention a WAL replayed into
	// this store applies to its sealed files.
	cutoff atomic.Int64

	// dictMu guards every attribute's dictionary and the order attributes
	// were first seen in. Lock order: dictMu and a shard lock are never held
	// together. Appends intern before they take a shard lock, and readers
	// resolve before (or pin dictionaries after) they read shards, so an id
	// reaches a shard only after its dictionary entry is published.
	dictMu    sync.RWMutex
	dicts     map[string]*dict
	attrOrder []string

	// threshold is SketchConfig.Threshold; tieredPtr holds the immutable
	// snapshot of the attributes that tiered up (tier.go).
	threshold int
	tieredPtr atomic.Pointer[map[string]bool]
}

// dict is one attribute's store-wide, append-only dictionary: an id names
// its value for the store's life, Compact included, so every shard's ids
// agree and per-shard partials add by id. vals[0] is "" (attribute missing).
// Only values some row carried are interned: len(vals)-1 is the distinct
// value count the tier-up reads.
type dict struct {
	pos   int // the attribute's position in attrOrder
	vals  []string
	index map[string]uint32
}

// NewStore returns an empty drift log with the default tier-up threshold
// (4096 — ordinary categorical attributes keep their bitmaps).
func NewStore() *Store {
	return NewStoreWithSketch(SketchConfig{})
}

// NewStoreWithSketch returns an empty drift log with the given tier-up
// threshold (zero takes the default). The name is kept for the composed
// benchmark.
func NewStoreWithSketch(cfg SketchConfig) *Store {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 4096
	}
	s := &Store{dicts: map[string]*dict{}, threshold: cfg.Threshold}
	s.cutoff.Store(math.MinInt64)
	for i := range s.shards {
		s.shards[i].cols = map[string]*column{}
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
	// Samples is the number of rows holding an uploaded vector;
	// SamplesAdded counts the vectors appended since the store was created
	// (replays included), so SamplesAdded - Samples left with compacted rows.
	Samples      int
	SamplesAdded int64
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
	// SketchAttrs counts the attributes that tiered up (no bitmaps).
	// SketchBytes is always 0: no structure is kept beside the rows. Both
	// names are kept for the composed benchmark.
	SketchAttrs int
	SketchBytes int64
}

// Stats returns the current operational snapshot in O(shards × bitmaps):
// row bounds are maintained at append, so no row is visited.
func (s *Store) Stats() Stats {
	st := Stats{ShardRows: make([]int, numShards), CompactedRows: s.compacted.Load(), SamplesAdded: s.samplesAdded.Load()}
	var oldest, newest int64
	seen := false
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.ShardRows[i] = len(sh.times)
		st.Rows += len(sh.times)
		st.Samples += len(sh.sampleRows)
		if len(sh.driftBits) > 0 {
			st.IndexBitmaps++
			st.IndexWords += len(sh.driftBits)
		}
		for _, col := range sh.cols {
			if col.tiered {
				continue
			}
			st.IndexBitmaps += len(col.held())
			for _, id := range col.held() {
				st.IndexWords += len(col.bits[id])
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
		}
		sh.mu.RUnlock()
	}
	s.dictMu.RLock()
	st.Attributes = len(s.attrOrder)
	s.dictMu.RUnlock()
	st.SketchAttrs = len(s.tieredSet())
	if st.Rows > 0 {
		st.OldestTime = time.Unix(0, oldest).UTC()
		st.NewestTime = time.Unix(0, newest).UTC()
	}
	return st
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
// full-store sweep is O(n log n) (the chaos harnesses audit six-figure
// row counts).
func (s *Store) Each(f func(i int, e Entry)) {
	refs := s.orderedRows()
	dicts := s.pinDicts() // after the rows: covers every id they hold
	for i, ref := range refs {
		sh := &s.shards[ref.shard]
		sh.mu.RLock()
		e := sh.entryLocked(ref.row, dicts)
		sh.mu.RUnlock()
		f(i, e)
	}
}

// pinDicts returns every attribute's dictionary as it stands: values by id.
// An id a shard held when the call began is covered.
func (s *Store) pinDicts() map[string][]string {
	s.dictMu.RLock()
	defer s.dictMu.RUnlock()
	out := make(map[string][]string, len(s.attrOrder))
	for _, name := range s.attrOrder {
		out[name] = s.dicts[name].vals
	}
	return out
}

func (sh *shard) entryLocked(i int, dicts map[string][]string) Entry {
	e := Entry{
		Time:     time.Unix(0, sh.times[i]).UTC(),
		Drift:    sh.drift[i],
		SampleID: sh.samples[i],
		Attrs:    map[string]string{},
	}
	for _, name := range sh.order {
		col := sh.cols[name]
		if id := col.ids[i]; id != 0 {
			e.Attrs[name] = dicts[name][id]
		}
	}
	return e
}

// Cond is an equality predicate on one attribute.
type Cond struct {
	Attr  string
	Value string
}

// viewCol pins one shard column: its ids over the pinned rows and the values
// it held then. A query snapshots a value's bitmap when it reads it (snap),
// so a view's size does not grow with the dictionaries. The zero viewCol
// (live == nil) stands for a column the shard does not hold.
type viewCol struct {
	ids  []uint32
	held []uint32
	live *column // never changed below the pinned rows (see column)
}

// col returns the shard's column of the attribute at position pos (see
// column.pos); ok is false when the shard holds none.
func (vs *viewShard) col(pos int) (c viewCol, ok bool) {
	if pos < len(vs.cols) && vs.cols[pos].live != nil {
		return vs.cols[pos], true
	}
	return viewCol{}, false
}

// snap pins store id's bitmap in column c at the view's rows (empty when the
// column does not hold it). Must be called under vs.mu's read lock: the
// appender writes the column's bitmap headers.
func (vs *viewShard) snap(c viewCol, id uint32) bmSnap {
	if int(id) >= len(c.live.bits) {
		return bmSnap{}
	}
	return snapBitmap(c.live.bits[id], vs.rows>>6, uint(vs.rows&63))
}

// snapAll appends to dst the bitmaps of ids in column c, snapped under one
// read lock.
func (vs *viewShard) snapAll(dst []bmSnap, c viewCol, ids []uint32) []bmSnap {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	for _, id := range ids {
		dst = append(dst, vs.snap(c, id))
	}
	return dst
}

// viewShard is the immutable snapshot of one shard: slice headers pinned
// at creation, so scans touch no locks and concurrent appends (which only
// write beyond the pinned lengths) never shift results mid-analysis. The
// same argument pins the bitset index: appends only mutate the word
// covering the row being written, so the fully populated word prefix is
// shared by reference and the single partial word at the pinned row
// boundary is copied by value (bmSnap.tail) under the shard lock.
type viewShard struct {
	offset     int // base index of this shard's rows in the view's row numbering
	rows       int
	seqs       []int64
	times      []int64
	drift      []bool
	samples    []int64
	sampleRows []int
	sampleVecs [][]float64
	cols       []viewCol     // indexed by attribute position (column.pos)
	mu         *sync.RWMutex // the shard's lock, guarding its live columns

	// Bitset index.
	fullWords int    // rows / 64
	window    winBM  // rows passing the view's window predicate
	driftBM   bmSnap // stored drift flags
	// wlo / whi bound the window bitmap's non-zero words (the tail counts
	// as word fullWords), the words window holds: every bitset loop runs
	// over [wlo, whi), so a query costs the words the window spans, not the
	// words the log holds.
	wlo, whi int

	// wmin / wmax pin the full words' time bounds by reference; tmin / tmax
	// are the partial tail word's, copied under the shard lock.
	wmin, wmax []int64
	tmin, tmax int64
	// timesRead counts the timestamps buildWindowBM read: the rows of the
	// words a window bound cuts.
	timesRead int

	// Delta-view predicate (Since): a row qualifies when it is new
	// (row index >= minRow) or was previously outside the window's upper
	// bound (time >= prevTo). Zero minRow accepts every in-window row.
	minRow int
	prevTo int64
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
	s        *Store
	// dicts pins every attribute's dictionary after the shards, so it holds
	// every id a pinned row carries.
	dicts  map[string][]string
	shards [numShards]viewShard
}

// Window returns a view over [from, to). Zero times are unbounded. The
// view carries a pinned snapshot of the bitset index, so Count,
// ClearDrift and AttrValueCounts run as word-wise AND + popcount.
func (s *Store) Window(from, to time.Time) *View {
	v := &View{from: math.MinInt64, s: s}
	if !from.IsZero() {
		v.from = from.UnixNano()
	}
	if to.IsZero() {
		v.to = math.MaxInt64
	} else {
		v.to = to.UnixNano()
	}
	offset := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		rows := len(sh.times)
		vs := viewShard{
			offset:     offset,
			rows:       rows,
			seqs:       sh.seqs[:rows],
			times:      sh.times[:rows],
			drift:      sh.drift[:rows],
			samples:    sh.samples[:rows],
			sampleRows: sh.sampleRows,
			sampleVecs: sh.sampleVecs,
			mu:         &sh.mu,
		}
		width := 0
		for _, col := range sh.cols {
			width = max(width, col.pos+1)
		}
		vs.cols = make([]viewCol, width)
		fw := rows >> 6
		rem := uint(rows & 63)
		vs.wmin, vs.wmax = sh.wmin[:fw], sh.wmax[:fw]
		if rem > 0 {
			vs.tmin, vs.tmax = sh.wmin[fw], sh.wmax[fw]
		}
		vs.driftBM = snapBitmap(sh.driftBits, fw, rem)
		for _, col := range sh.cols {
			vs.cols[col.pos] = viewCol{ids: col.ids[:rows], held: col.held(), live: col}
		}
		sh.mu.RUnlock()
		v.shards[i] = vs
		// Outside the lock: reads only the pinned times.
		v.shards[i].buildWindowBM(v)
		offset += rows
	}
	// After the shards: an append interns its values before its rows land,
	// so every id a pinned row holds is in the pinned dictionaries.
	v.dicts = s.pinDicts()
	return v
}

// buildWindowBM materializes the shard's window-predicate bitmap one word
// at a time from the word's time bounds (windowWord), so a window costs the
// shard's words plus the rows at its edges, whatever the write order. Only
// the words between the first and last a window row lands in are stored.
func (vs *viewShard) buildWindowBM(v *View) {
	fw := vs.rows >> 6
	nw := (vs.rows + 63) >> 6
	bounds := func(w int) (lo, hi int64) {
		if w < fw {
			return vs.wmin[w], vs.wmax[w]
		}
		return vs.tmin, vs.tmax
	}
	// First and last word whose time bounds meet [from, to): the common
	// case, kept to two compares a word.
	first, last := nw, -1
	for w := range nw {
		if lo, hi := bounds(w); hi >= v.from && lo < v.to {
			first = min(first, w)
			last = w
		}
	}
	vs.timesRead = 0
	var words []uint64
	wlo, whi := 0, 0
	if first <= last {
		words = make([]uint64, last-first+1)
		for w := first; w <= last; w++ {
			lo, hi := bounds(w)
			if words[w-first] = vs.windowWord(v, w, lo, hi); words[w-first] != 0 {
				if whi == 0 {
					wlo = w
				}
				whi = w + 1
			}
		}
		if whi == 0 {
			words = nil // every candidate word was cut to zero
		} else {
			words = words[wlo-first : whi-first]
		}
	}
	vs.fullWords, vs.wlo, vs.whi = fw, wlo, whi
	vs.window = winBM{lo: wlo, words: words}
}

// windowWord evaluates the view's predicate — [from, to) and Since's delta
// clause (row >= minRow or time >= prevTo) — on the rows of word w, whose
// times lie in [lo, hi]: a word no row of which can pass is 0, a word every
// row of which passes is all ones, and only a word a bound cuts reads its
// rows' timestamps.
func (vs *viewShard) windowWord(v *View, w int, lo, hi int64) uint64 {
	first := w << 6
	n := min(64, vs.rows-first)
	if hi < v.from || lo >= v.to || (first+n <= vs.minRow && hi < vs.prevTo) {
		return 0
	}
	if lo >= v.from && hi < v.to && (first >= vs.minRow || lo >= vs.prevTo) {
		return ^uint64(0) >> (64 - n)
	}
	vs.timesRead += n
	var word uint64
	for i := range n {
		if vs.inWindow(v, first+i) {
			word |= 1 << i
		}
	}
	return word
}

// All returns a view over every row currently in the store.
func (s *Store) All() *View { return s.Window(time.Time{}, time.Time{}) }

// Bounds returns the view's window as unix nanos (from is math.MinInt64
// and to is math.MaxInt64 when unbounded) — the identity half of an
// analysis-cache key.
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
	d := &View{from: v.from, to: v.to, s: v.s, dicts: v.dicts}
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

// parallelOperands is the word operands a query reads, summed over the
// shards, from which its per-shard work fans out over the worker pool: the
// window's words times the bitmaps read at each, or rowOperands for a walk
// (DESIGN.md §5g has the runs it was set from).
const (
	parallelOperands = 1 << 11
	rowOperands      = 64 // a walk reads a window word as its 64 rows
)

// eachShard runs f(i) for every shard, in parallel when the query reads
// enough word operands — the window's words [wlo, whi) times perWord, the
// operands it reads at each — and the pool is wider than one worker. f
// writes only to per-shard slots, so scheduling never affects results.
func (v *View) eachShard(perWord int, f func(i int)) {
	words := 0
	for si := range v.shards {
		words += v.shards[si].whi - v.shards[si].wlo
	}
	if words*perWord < parallelOperands || tensor.Workers() <= 1 {
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
// evaluates it on the rows of the words a bound cuts; every query after
// that reads the window bitmap.
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
		t, _ := popcountAnd(vs.window.words, vs.window.words, nil)
		n += t
	}
	return n
}

// CountResult is the aggregate FIM consumes.
type CountResult struct {
	Total int // rows matching the predicate
	Drift int // of those, rows flagged as drift
}

// Routing. A query touching no attribute that tiered up is answered from the
// bitmaps; one touching a tiered attribute — whose columns hold ids but no
// bitmaps — by one walk of the window's rows (DESIGN.md §5g has each cell's
// cost, in words or rows of the window — never of the log):
//
//	query            bitmaps                   tiered attribute
//	Count            countBitset               countRows
//	ClearDrift       clearDriftBitset          clearDriftRows
//	AttrValueCounts  andPopcount per value     valueScan
//	ExtensionCounts  popcount per extension    walkGroup
//	SampleIDs        eachMatch                 eachMatch
//
// Count and ClearDrift route per view (tiered); the group-bys decide per
// shard column or group, and also walk the rows for a column whose values (a
// group: its extensions) outnumber what popcounting pays for. PairCounts,
// which mining does not call, always walks.

// Item is one attribute value resolved to store ids: its attribute's
// position, which indexes a view shard's columns (AttrCounts.Pos), and its
// value's store id. A query resolves each condition to one; the extension
// count takes its groups as them.
type Item struct {
	Pos int
	ID  uint32
}

// resolve appends each condition's reference to refs: once per query, under
// one read lock of the dictionaries. An id is 0 when the view's dictionary
// does not hold the value (an id past its length was interned after the
// view): held is false, as the conjunction matches no row. An attribute the
// view does not know is an error.
func (v *View) resolve(conds []Cond, refs []Item) (_ []Item, held bool, err error) {
	v.s.dictMu.RLock()
	defer v.s.dictMu.RUnlock()
	for _, c := range conds {
		vals, ok := v.dicts[c.Attr]
		if !ok {
			return nil, false, fmt.Errorf("driftlog: unknown attribute %q", c.Attr)
		}
		d := v.s.dicts[c.Attr]
		id := d.index[c.Value]
		if int(id) >= len(vals) {
			id = 0
		}
		refs = append(refs, Item{d.pos, id})
	}
	return refs, !slices.ContainsFunc(refs, func(r Item) bool { return r.ID == 0 }), nil
}

// tiered reports whether a resolved condition is on an attribute with a
// pinned column that holds no bitmaps.
func (v *View) tiered(refs []Item) bool {
	for si := range v.shards {
		for _, r := range refs {
			if c, ok := v.shards[si].col(r.Pos); ok && c.live.tiered {
				return true
			}
		}
	}
	return false
}

// colCond is one resolved equality predicate on a shard snapshot.
type colCond struct {
	ids []uint32
	id  uint32
}

// eachMatch is the row walk's primitive: f(si, vs, i) for every
// window row i of every shard that satisfies all the conditions, rows in
// order within a shard, shards in parallel on large views — so f may write
// per-shard slots only. The walk is over the window bitmap's words
// [wlo, whi): it costs the rows the window holds, wherever in the log the
// window lies.
func (v *View) eachMatch(refs []Item, f func(si int, vs *viewShard, i int)) {
	own := slices.Clone(refs) // the fan-out's closure escapes: the caller's buffer stays on its stack
	v.eachShard(rowOperands, func(si int) {
		vs := &v.shards[si]
		vs.eachMatchRow(own, func(i int) { f(si, vs, i) })
	})
}

// eachMatchRow is eachMatch in one shard: f(i) for every window row i whose
// columns hold the conditions' ids, in row order.
func (vs *viewShard) eachMatchRow(refs []Item, f func(i int)) {
	ccs := make([]colCond, 0, len(refs))
	for _, r := range refs {
		col, ok := vs.col(r.Pos)
		if !ok {
			return
		}
		ccs = append(ccs, colCond{ids: col.ids, id: r.ID})
	}
	vs.eachWindowRow(func(i int) {
		for _, cc := range ccs {
			if cc.ids[i] != cc.id {
				return
			}
		}
		f(i)
	})
}

// Count aggregates rows matching every condition. The overlay, if
// non-nil, replaces the stored drift flags — the hook counterfactual
// analysis uses to "mark" entries as non-drift without mutating the log.
func (v *View) Count(conds []Cond, ov *Overlay) (CountResult, error) {
	var buf [4]Item
	refs, held, err := v.resolve(conds, buf[:0])
	switch {
	case err != nil || !held:
		return CountResult{}, err
	case v.tiered(refs):
		return v.countRows(refs, ov), nil
	}
	return v.countBitset(refs, ov), nil
}

func (v *View) countRows(refs []Item, ov *Overlay) CountResult {
	var partial [numShards]CountResult
	v.eachMatch(refs, func(si int, vs *viewShard, i int) { partial[si] = addDrift(partial[si], ov.driftAt(vs, si, i)) })
	var out CountResult
	for _, p := range partial {
		out.Total += p.Total
		out.Drift += p.Drift
	}
	return out
}

// ClearDrift clears the overlaid drift flag of every in-window row
// matching the conditions, returning how many flags were cleared. A
// mutating call stamps the overlay with a fresh epoch (see
// Overlay.Epoch).
func (v *View) ClearDrift(conds []Cond, ov *Overlay) (int, error) {
	var buf [4]Item
	refs, held, err := v.resolve(conds, buf[:0])
	switch {
	case err != nil || !held:
		return 0, err
	case v.tiered(refs):
		return v.clearDriftRows(refs, ov), nil
	}
	return v.clearDriftBitset(refs, ov), nil
}

func (v *View) clearDriftRows(refs []Item, ov *Overlay) int {
	var cleared [numShards]int
	v.eachMatch(refs, func(si int, _ *viewShard, i int) {
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
	return n
}

// PairKey identifies a two-attribute value combination (attributes in
// lexicographic order).
type PairKey struct {
	AttrA, ValA string
	AttrB, ValB string
}

// SampleIDs returns the sample IDs (≥ 0 only) of in-window rows matching
// the conditions, ascending (ties in canonical row order) — the links of
// the rows a cause matches, whether or not they hold a vector.
func (v *View) SampleIDs(conds []Cond) ([]int64, error) {
	ids, _, err := v.sampleRows(conds, false)
	return ids, err
}

// Samples returns the sample IDs and uploaded vectors of the in-window
// rows matching the conditions that carry a vector, ascending by sample
// ID (ties in canonical row order) — how adaptation gathers the inputs of
// a root cause. IDs are persisted and sequence numbers are not, so the
// order survives a replay that appends batches in another order than the
// live store did. The vectors are the store's own: callers must not
// modify them.
func (v *View) Samples(conds []Cond) ([]int64, [][]float64, error) {
	return v.sampleRows(conds, true)
}

// sampleRows collects, in (sample ID, sequence) order, the IDs of the
// matching rows that link a sample and, withVec, their vectors (skipping
// rows that hold none).
func (v *View) sampleRows(conds []Cond, withVec bool) ([]int64, [][]float64, error) {
	type hit struct {
		seq, id int64
		x       []float64
	}
	refs, held, err := v.resolve(conds, nil)
	if err != nil || !held {
		return nil, nil, err
	}
	var partial [numShards][]hit
	v.eachMatch(refs, func(si int, vs *viewShard, i int) {
		if vs.samples[i] < 0 {
			return
		}
		var x []float64
		if withVec {
			if x = vs.sample(i); x == nil {
				return
			}
		}
		partial[si] = append(partial[si], hit{vs.seqs[i], vs.samples[i], x})
	})
	var hits []hit
	for si := range partial {
		hits = append(hits, partial[si]...)
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].id != hits[b].id {
			return hits[a].id < hits[b].id
		}
		return hits[a].seq < hits[b].seq
	})
	var ids []int64
	var xs [][]float64
	for _, h := range hits {
		ids = append(ids, h.id)
		if withVec {
			xs = append(xs, h.x)
		}
	}
	return ids, xs, nil
}

// sample returns row i's vector (nil when the row holds none).
func (vs *viewShard) sample(i int) []float64 {
	if k, ok := slices.BinarySearch(vs.sampleRows, i); ok {
		return vs.sampleVecs[k]
	}
	return nil
}
