// Tiered sketch layer: when an attribute's distinct-value count crosses
// SketchConfig.Threshold, its exact per-value bitmaps are dropped and the
// attribute is answered from bounded-memory streaming summaries instead —
// a ring of window-aligned Count-Min sub-sketches (support counting with a
// one-sided analytic error bound) plus a Space-Saving heavy-hitter tracker
// (candidate enumeration). Pairs with a sketched side share one Count-Min
// ring, queried per candidate pair. Low-cardinality attributes keep the
// exact PR-5 bitset path untouched; tiering is sticky (an attribute never
// tiers back down) and the dictionary-encoded row ids are retained even
// for sketched columns, so what the sketches cannot answer (delta views,
// mutated overlays, ClearDrift, SampleIDs) is answered exactly by a walk
// of the window's rows — see View.tier.
//
// Bucket ring: each sketched attribute owns sub-sketches keyed by the
// bucket-aligned start of their time span, created lazily (only time
// ranges with data allocate a bucket). When the ring exceeds MaxBuckets
// the oldest bucket folds into a single "rest" bucket covering everything
// before the live ring — eager eviction keeps memory flat while window
// queries over recent data stay bucket-resolved. Windowed estimates sum
// the Count-Min estimates of fully covered buckets and resolve partially
// covered bucket edges by an exact scan of just that time slice.
//
// Concurrency: rows reach the rings through one batch feed (sketchfeed.go)
// that runs outside every shard lock, before the batch's rows land. What
// makes a row fed exactly once — by its append or by a replay, never both —
// is the gate sketchIndex.tierMu: appendColumns read-holds it from the feed
// through its last shard append, tier-up and Compact's rebuild write-hold it
// while they replay the rows the shards hold into fresh rings and install
// them. So a replay never runs between a batch's feed and its landing, and
// appenders share the gate among themselves. Feeding before landing keeps
// every concurrent view one-sided: a row a view can see has all its sketch
// mass in the rings already.
package driftlog

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nazar/internal/sketch"
)

// SketchConfig tunes the tiered sketch layer. The zero value selects the
// defaults below; NewStore uses the zero value.
type SketchConfig struct {
	// Threshold is the distinct-value count above which an attribute
	// tiers from exact bitmaps to sketches (default 4096 — high enough
	// that ordinary categorical attributes never tier).
	Threshold int
	// Width / PairWidth are the Count-Min cells per hash row for value
	// and pair sketches (defaults 2048 / 8192; additive error is
	// ~e·N/width over N increments).
	Width     int
	PairWidth int
	// Depth is the Count-Min hash-row count (default 3; failure
	// probability of the additive bound is e^-depth per query).
	Depth int
	// Bucket is the sub-sketch time alignment (default 10m): windows
	// aligned to it are answered purely from sketches, unaligned window
	// edges fall back to an exact scan of the edge slice.
	Bucket time.Duration
	// MaxBuckets bounds the live ring per attribute (default 96); older
	// buckets fold into a single "rest" sketch.
	MaxBuckets int
	// HeavyHitters sizes a sketched attribute's Space-Saving tracker
	// (default 256); pairs of values a window holds ≥ 1/HeavyHitters of the
	// time are enumerated (View.pairCountsSketch).
	HeavyHitters int
	// Seed fixes the hash family; the default is a package constant so
	// results are byte-identical across processes and pool widths.
	Seed uint64
}

const defaultSketchSeed = 0x6e617a61722d3130 // "nazar-10"

func (c SketchConfig) withDefaults() SketchConfig {
	if c.Threshold <= 0 {
		c.Threshold = 4096
	}
	if c.Width <= 0 {
		c.Width = 2048
	}
	if c.PairWidth <= 0 {
		c.PairWidth = 8192
	}
	if c.Depth <= 0 {
		c.Depth = 3
	}
	if c.Bucket <= 0 {
		c.Bucket = 10 * time.Minute
	}
	if c.MaxBuckets <= 0 {
		c.MaxBuckets = 96
	}
	if c.HeavyHitters <= 0 {
		c.HeavyHitters = 256
	}
	if c.Seed == 0 {
		c.Seed = defaultSketchSeed
	}
	return c
}

// span is a half-open time range [from, to) in unix nanos.
type span struct{ from, to int64 }

// sketchBucket is one window-aligned sub-sketch covering [start, end).
type sketchBucket struct {
	start, end int64
	adds       atomic.Uint64 // increments fed (the N of the error bound)
	cm         *sketch.CountMin
}

// attrSketch is the sketch state of one tiered attribute (or the
// store-global pair ring): the live bucket ring sorted by start, the
// folded "rest" bucket covering everything older, and (value rings) the
// heavy-hitter tracker. mu guards the ring structure; Count-Min adds are
// atomic, so concurrent feeders only share mu in read mode.
type attrSketch struct {
	width, depth int
	seed         uint64
	bucketNanos  int64
	maxBuckets   int

	mu      sync.RWMutex
	buckets []*sketchBucket // sorted by start, pairwise disjoint
	rest    *sketchBucket   // span strictly before buckets[0]; nil until first fold
	evicted int64

	// restLow is the lowest bucket-aligned time ever fed into rest — the
	// effective start of rest's span. rest.start alone is wrong: rest
	// absorbs every add older than rest.end (including rows older than any
	// bucket it was folded from), and out-of-order folds can leave
	// rest.start above mass rest actually holds, which would let a window
	// "fully cover" rest while excluding some of its mass (overcount past
	// the bound) or skip rest while it holds in-window mass (undercount —
	// breaking one-sidedness).
	restLow atomic.Int64

	hh *sketch.SpaceSaving[string] // nil on the pair ring
}

// lowerRestLow lowers the rest span's effective start to aligned.
func (as *attrSketch) lowerRestLow(aligned int64) {
	for {
		cur := as.restLow.Load()
		if aligned >= cur || as.restLow.CompareAndSwap(cur, aligned) {
			return
		}
	}
}

func newAttrSketch(cfg SketchConfig, width int) *attrSketch {
	return &attrSketch{
		width:       width,
		depth:       cfg.Depth,
		seed:        cfg.Seed,
		bucketNanos: int64(cfg.Bucket),
		maxBuckets:  cfg.MaxBuckets,
	}
}

// alignDown floors t to the bucket grid (exact for negative times too —
// zero-Time entries carry a negative UnixNano).
func alignDown(t, step int64) int64 {
	r := t % step
	if r < 0 {
		r += step
	}
	return t - r
}

// findLocked resolves the bucket owning aligned under mu (either mode).
func (as *attrSketch) findLocked(aligned int64) *sketchBucket {
	if as.rest != nil && aligned < as.rest.end {
		return as.rest
	}
	i := sort.Search(len(as.buckets), func(i int) bool { return as.buckets[i].start >= aligned })
	if i < len(as.buckets) && as.buckets[i].start == aligned {
		return as.buckets[i]
	}
	return nil
}

// insertLocked creates the bucket for aligned, folding the oldest live
// bucket(s) into rest when the ring is over capacity. Must hold mu in
// write mode. The returned bucket may be rest when the new bucket itself
// aged out (deep out-of-order append).
func (as *attrSketch) insertLocked(aligned int64) *sketchBucket {
	nb := &sketchBucket{start: aligned, end: aligned + as.bucketNanos,
		cm: sketch.NewCountMin(as.width, as.depth, as.seed)}
	i := sort.Search(len(as.buckets), func(i int) bool { return as.buckets[i].start >= aligned })
	as.buckets = append(as.buckets, nil)
	copy(as.buckets[i+1:], as.buckets[i:])
	as.buckets[i] = nb
	for len(as.buckets) > as.maxBuckets {
		old := as.buckets[0]
		as.buckets = append(as.buckets[:0], as.buckets[1:]...)
		// Fold into a fresh rest bucket, never into a bucket in place: a
		// view pins the buckets its window covers (View.sketchWin), and a
		// pinned rest that absorbed a bucket pinned beside it would count
		// that bucket twice.
		rest := &sketchBucket{start: old.start, end: old.end,
			cm: sketch.NewCountMin(as.width, as.depth, as.seed)}
		rest.cm.Merge(old.cm)
		rest.adds.Store(old.adds.Load())
		if prev := as.rest; prev == nil {
			as.restLow.Store(old.start)
		} else {
			as.lowerRestLow(old.start)
			rest.cm.Merge(prev.cm)
			rest.adds.Add(prev.adds.Load())
			rest.start, rest.end = min(rest.start, prev.start), max(rest.end, prev.end)
		}
		as.rest = rest
		as.evicted++
	}
	if as.rest != nil && aligned < as.rest.end {
		return as.rest
	}
	return nb
}

// addBucket adds the groups listed by idx — a batch's distinct keys in the
// bucket owning aligned — to that bucket's Count-Min. The increments happen
// under mu (read mode unless the bucket has to be created), so a concurrent
// fold — which merges a bucket's counters under the write lock — can never
// lose them.
func (as *attrSketch) addBucket(aligned int64, groups []feedGroup, idx []int32) {
	as.mu.RLock()
	b := as.findLocked(aligned)
	if b == nil {
		as.mu.RUnlock()
		as.mu.Lock()
		if b = as.findLocked(aligned); b == nil {
			b = as.insertLocked(aligned)
		}
		as.addLocked(b, aligned, groups, idx)
		as.mu.Unlock()
		return
	}
	as.addLocked(b, aligned, groups, idx)
	as.mu.RUnlock()
}

func (as *attrSketch) addLocked(b *sketchBucket, aligned int64, groups []feedGroup, idx []int32) {
	if b == as.rest {
		as.lowerRestLow(aligned)
	}
	var n uint64
	for _, gi := range idx {
		g := &groups[gi]
		b.cm.AddCounts(g.key, g.total, g.drift)
		n += uint64(g.total)
	}
	b.adds.Add(n)
}

// eachOverlap classifies every non-empty bucket against [from, to) under
// one read lock: f receives the bucket, its increments fed, and the
// overlapped slice, with full set when the bucket lies entirely inside the
// window. Buckets with no overlap are skipped; time ranges with no bucket
// hold no rows by construction.
func (as *attrSketch) eachOverlap(from, to int64, f func(b *sketchBucket, n uint64, part span, full bool)) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	consider := func(b *sketchBucket) {
		if b == nil {
			return
		}
		start := b.start
		if b == as.rest {
			start = as.restLow.Load()
		}
		if b.end <= from || start >= to {
			return
		}
		if n := b.adds.Load(); n > 0 {
			f(b, n, span{max(start, from), min(b.end, to)}, start >= from && b.end <= to)
		}
	}
	consider(as.rest)
	for _, b := range as.buckets {
		consider(b)
	}
}

// cover resolves the window [from, to) against the ring: the buckets fully
// inside it, which Count-Min answers, and the partially covered time slices
// (edges), which the caller must count exactly. Neither depends on the key,
// so a view resolves each ring once (see sketchWindow).
func (as *attrSketch) cover(from, to int64) (full []*sketchBucket, edges []span) {
	as.eachOverlap(from, to, func(b *sketchBucket, _ uint64, part span, whole bool) {
		if whole {
			full = append(full, b)
		} else {
			edges = append(edges, part)
		}
	})
	return
}

// bound is the summed analytic Count-Min error bound of the buckets fully
// inside [from, to) — the one-sided error of any estimate over the window
// (edges are exact and add none).
func (as *attrSketch) bound(from, to int64) (bound uint64) {
	as.eachOverlap(from, to, func(_ *sketchBucket, n uint64, _ span, whole bool) {
		if whole {
			bound += sketch.ErrBound(as.width, n)
		}
	})
	return
}

// cmSum sums the one-sided Count-Min estimates of key over full, hashing
// the key once: every bucket of a ring shares its seed.
func cmSum(full []*sketchBucket, key string) (total, drift uint64) {
	if len(full) == 0 {
		return 0, 0
	}
	h := full[0].cm.Hash(key)
	for _, b := range full {
		e := b.cm.EstimateHash(h)
		total += uint64(e.Total)
		drift += uint64(e.Drift)
	}
	return total, min(drift, total)
}

// memory returns (buckets, bytes) of this ring, counting the rest bucket.
func (as *attrSketch) memory() (buckets int, bytes int64) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	for _, b := range as.buckets {
		bytes += int64(b.cm.Bytes())
	}
	buckets = len(as.buckets)
	if as.rest != nil {
		buckets++
		bytes += int64(as.rest.cm.Bytes())
	}
	if as.hh != nil {
		bytes += int64(as.hh.Bytes())
	}
	return
}

// sketchIndex is the store-global tiered sketch state: one value ring per
// sketched attribute plus a single pair ring fed with every two-attribute
// combination where at least one side is sketched.
type sketchIndex struct {
	cfg SketchConfig
	// tierMu is the gate between appends and rebuilds: an append read-holds
	// it from its sketch feed through its last shard append, tier-up and
	// Compact's rebuild write-hold it (see the package header).
	tierMu sync.RWMutex

	mu    sync.RWMutex
	attrs map[string]*attrSketch
	pairs *attrSketch

	// feedRows / feedKeys / feedOffers count the rows the batch feed was
	// handed, the distinct keys it added and the Space-Saving offers made.
	feedRows, feedKeys, feedOffers atomic.Int64
}

func newSketchIndex(cfg SketchConfig) *sketchIndex {
	cfg = cfg.withDefaults()
	return &sketchIndex{
		cfg:   cfg,
		attrs: map[string]*attrSketch{},
		pairs: newAttrSketch(cfg, cfg.PairWidth),
	}
}

// attr returns (creating if needed) the value ring for a sketched attribute.
func (sk *sketchIndex) attr(name string) *attrSketch {
	sk.mu.RLock()
	as := sk.attrs[name]
	sk.mu.RUnlock()
	if as != nil {
		return as
	}
	sk.mu.Lock()
	defer sk.mu.Unlock()
	if as := sk.attrs[name]; as != nil {
		return as
	}
	as = newAttrSketch(sk.cfg, sk.cfg.Width)
	as.hh = sketch.NewSpaceSaving[string](sk.cfg.HeavyHitters)
	sk.attrs[name] = as
	return as
}

// lookupAttr is attr without the create (query side).
func (sk *sketchIndex) lookupAttr(name string) *attrSketch {
	sk.mu.RLock()
	defer sk.mu.RUnlock()
	return sk.attrs[name]
}

// pairRing returns the current pair ring (install replaces it).
func (sk *sketchIndex) pairRing() *attrSketch {
	sk.mu.RLock()
	defer sk.mu.RUnlock()
	return sk.pairs
}

// install replaces all sketch state with fresh's rings, built aside by a
// replay: a view resolving its window meanwhile reads the old rings, which
// hold every row it can see, never a half-replayed ring. Callers write-hold
// tierMu.
func (sk *sketchIndex) install(fresh *sketchIndex) {
	sk.mu.Lock()
	sk.attrs, sk.pairs = fresh.attrs, fresh.pairs
	sk.mu.Unlock()
	sk.feedRows.Add(fresh.feedRows.Load())
	sk.feedKeys.Add(fresh.feedKeys.Load())
	sk.feedOffers.Add(fresh.feedOffers.Load())
}

// collectStats fills the sketch-tier fields of a Stats snapshot.
func (sk *sketchIndex) collectStats(st *Stats) {
	sk.mu.RLock()
	rings := make([]*attrSketch, 0, len(sk.attrs)+1)
	for _, as := range sk.attrs {
		rings = append(rings, as)
	}
	rings = append(rings, sk.pairs)
	sk.mu.RUnlock()
	for _, as := range rings {
		buckets, bytes := as.memory()
		st.SketchBuckets += buckets
		st.SketchBytes += bytes
		as.mu.RLock()
		st.SketchEvicted += as.evicted
		as.mu.RUnlock()
	}
	st.SketchFeedRows, st.SketchFeedKeys, st.SketchFeedOffers = sk.feedRows.Load(), sk.feedKeys.Load(), sk.feedOffers.Load()
}

// pairSketchKey encodes a canonical (aName < bName) pair occurrence.
// Attribute names and values must not contain NUL (nothing in the system
// produces them; a colliding key would only merge two pair estimates,
// preserving one-sidedness).
func pairSketchKey(aName, aVal, bName, bVal string) string {
	return aName + "\x00" + aVal + "\x00" + bName + "\x00" + bVal
}

// sketchedSet returns the current immutable sketched-attribute snapshot
// (nil when nothing has tiered). appendColumns loads it once under its read
// hold of tierMu; tier-up installs the successor under the write hold, so a
// batch is fed and landed under one snapshot.
func (s *Store) sketchedSet() map[string]bool {
	p := s.sketchedPtr.Load()
	if p == nil {
		return nil
	}
	return *p
}

// SketchedAttrs returns the attributes currently answered by sketches, in
// sorted order.
func (s *Store) SketchedAttrs() []string {
	set := s.sketchedSet()
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// tierUp moves attr onto the sketch tier: with appends gated out and every
// shard locked it rebuilds all sketch state from a full replay (so rows
// appended before the threshold crossing are counted exactly once), frees
// the attribute's per-value bitmaps (ids and dictionaries are retained for
// the exact row walk), and publishes the successor sketched-set snapshot.
// Tiering is sticky: sketched attributes never return to the bitmap tier.
func (s *Store) tierUp(attr string) {
	s.sk.tierMu.Lock()
	defer s.sk.tierMu.Unlock()
	cur := s.sketchedSet()
	if cur[attr] {
		return
	}
	next := make(map[string]bool, len(cur)+1)
	for k := range cur {
		next[k] = true
	}
	next[attr] = true
	s.rebuildSketches(next)
	// The attribute's exact distinct-value tracking set is no longer
	// needed (tiering is sticky).
	s.attrMu.Lock()
	delete(s.card, attr)
	s.attrMu.Unlock()
}

// replayChunk is the rows of a shard one replay feed takes: enough for the
// feed's grouping to pay, small enough to bound its scratch.
const replayChunk = 1024

// rebuildSketches replaces all sketch state with a replay of the rows the
// shards hold, frees the bitmaps of sketched columns and publishes sketched
// as the sketched-attribute snapshot. A shard's ids and dict columns already
// are a columnar batch, so the replay is the batch feed over chunks of each
// shard, in canonical order (shard-major, row order) — which fixes
// Space-Saving offer order deterministically. The fresh rings are built
// aside and installed whole. Caller write-holds tierMu; the shard locks are
// taken here, against views pinning columns while their bitmaps are freed.
func (s *Store) rebuildSketches(sketched map[string]bool) {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	fresh := newSketchIndex(s.sk.cfg)
	order := make([]int32, replayChunk)
	for i := range order {
		order[i] = int32(i)
	}
	for si := range s.shards {
		sh := &s.shards[si]
		cols := make([]*column, len(sh.order))
		chunk := ColumnarBatch{Cols: make([]ColumnData, len(sh.order))}
		for i, name := range sh.order {
			col := sh.cols[name]
			if sketched[name] && !col.sketched {
				col.sketched = true
				for id := range col.bits {
					col.bits[id] = nil
				}
			}
			cols[i] = col
			chunk.Cols[i] = ColumnData{Name: name, Dict: col.dict}
		}
		for lo := 0; lo < len(sh.times); lo += replayChunk {
			hi := min(lo+replayChunk, len(sh.times))
			chunk.Times, chunk.Drift = sh.times[lo:hi], sh.drift[lo:hi]
			for i, col := range cols {
				chunk.Cols[i].IDs = col.ids[lo:hi]
			}
			fresh.feedBatch(sketched, &chunk, order[:hi-lo])
		}
	}
	s.sk.install(fresh)
	// Published before any shard unlocks: a view that pins a column freed
	// above then loads a set naming its attribute (see Window).
	s.sketchedPtr.Store(&sketched)
	for i := numShards - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
}

// trackValues records a batch column's used values for an attribute still
// on the exact tier and reports whether the attribute just crossed the
// sketch threshold. The read-locked fast path exits without mutation when
// every value is already known, which is the steady state.
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
	return len(m) > s.sk.cfg.Threshold
}
