// Memoized support counting and the cross-window mining cache.
//
// Within one analysis window the same itemset is counted repeatedly —
// by the apriori passes, set reduction and counterfactual rescoring —
// so SupportCache memoizes (itemset key, overlay epoch) → CountResult.
// The overlay epoch (driftlog.Overlay.Epoch) is the invalidation rule:
// epoch 0 is "stored drift flags" and every mutating ClearDrift stamps
// a fresh globally unique epoch, so entries computed under an older
// counterfactual state can never be served for a newer one.
//
// Across windows, MineCache carries the epoch-0 counts a finished mine
// produced (totals, level-1 group-bys, the level-1 survivors' pair counts,
// per-candidate set counts), so re-mining a grown window only counts the
// delta rows (see MineCachedContext).
package fim

import (
	"container/list"
	"sync"
	"sync/atomic"

	"nazar/internal/driftlog"
)

// supportCacheKey identifies one memoized count: the itemset's
// canonical key ("" = window totals) under one overlay epoch.
type supportCacheKey struct {
	items string
	epoch uint64
}

// supportCacheEntry is one resident memo entry (the LRU list element
// value), carrying its key so eviction can unlink the map entry.
type supportCacheEntry struct {
	key supportCacheKey
	cr  driftlog.CountResult
}

// DefaultSupportCacheCap bounds a SupportCache's resident entries. A
// high-cardinality window can visit hundreds of thousands of candidate
// keys; without a bound the memo grows with the key universe rather than
// the working set. 32k entries (~3 MB) comfortably covers every key of an
// ordinary mining run, so eviction only engages on pathological windows.
const DefaultSupportCacheCap = 32768

// SupportCache memoizes support counts against one view with LRU
// eviction. It is safe for concurrent use (parallel candidate counting
// and subset rescoring share it). Eviction never affects results — an
// evicted entry is simply recounted on next use.
type SupportCache struct {
	v   *driftlog.View
	mu  sync.Mutex
	cap int
	m   map[supportCacheKey]*list.Element // values are *supportCacheEntry
	lru *list.List                        // front = most recently used
}

// NewSupportCache returns an empty memo over v with the default bound.
func NewSupportCache(v *driftlog.View) *SupportCache {
	return NewSupportCacheSize(v, DefaultSupportCacheCap)
}

// NewSupportCacheSize is NewSupportCache with an explicit entry bound
// (minimum 1).
func NewSupportCacheSize(v *driftlog.View, capacity int) *SupportCache {
	if capacity < 1 {
		capacity = 1
	}
	return &SupportCache{
		v:   v,
		cap: capacity,
		m:   map[supportCacheKey]*list.Element{},
		lru: list.New(),
	}
}

// View returns the view the cache memoizes against.
func (sc *SupportCache) View() *driftlog.View { return sc.v }

// Len returns the resident entry count (always <= the construction cap).
func (sc *SupportCache) Len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.m)
}

// get returns a resident entry, promoting it to most recently used.
func (sc *SupportCache) get(k supportCacheKey) (driftlog.CountResult, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	el, ok := sc.m[k]
	if !ok {
		return driftlog.CountResult{}, false
	}
	sc.lru.MoveToFront(el)
	return el.Value.(*supportCacheEntry).cr, true
}

// put inserts (or refreshes) an entry, evicting from the cold end while
// over capacity. Caller must not hold mu.
func (sc *SupportCache) put(k supportCacheKey, cr driftlog.CountResult) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if el, ok := sc.m[k]; ok {
		el.Value.(*supportCacheEntry).cr = cr
		sc.lru.MoveToFront(el)
		return
	}
	sc.m[k] = sc.lru.PushFront(&supportCacheEntry{key: k, cr: cr})
	for len(sc.m) > sc.cap {
		oldest := sc.lru.Back()
		sc.lru.Remove(oldest)
		delete(sc.m, oldest.Value.(*supportCacheEntry).key)
		supportCacheEvictions.Add(1)
	}
}

// supportCacheHits / supportCacheMisses / supportCacheEvictions are
// cumulative package counters, exposed as gauges by the observability
// layer.
var (
	supportCacheHits      atomic.Uint64
	supportCacheMisses    atomic.Uint64
	supportCacheEvictions atomic.Uint64
)

// SupportCacheStats is a snapshot of the package-wide memo counters.
type SupportCacheStats struct {
	Hits, Misses, Evictions uint64
}

// ReadSupportCacheStats returns the cumulative hit/miss/eviction counters
// across all SupportCaches in the process.
func ReadSupportCacheStats() SupportCacheStats {
	return SupportCacheStats{
		Hits:      supportCacheHits.Load(),
		Misses:    supportCacheMisses.Load(),
		Evictions: supportCacheEvictions.Load(),
	}
}

// epochOf maps an overlay to its cache epoch (nil = stored flags = 0).
func epochOf(ov *driftlog.Overlay) uint64 {
	if ov == nil {
		return 0
	}
	return ov.Epoch()
}

// count returns the memoized count for the itemset (key must be
// set.Key(); "" with a nil set means window totals), computing and
// recording it on miss.
func (sc *SupportCache) count(key string, set Itemset, ov *driftlog.Overlay) (driftlog.CountResult, error) {
	k := supportCacheKey{items: key, epoch: epochOf(ov)}
	if cr, ok := sc.get(k); ok {
		supportCacheHits.Add(1)
		return cr, nil
	}
	supportCacheMisses.Add(1)
	cr, err := sc.v.Count(set, ov)
	if err != nil {
		return driftlog.CountResult{}, err
	}
	sc.put(k, cr)
	return cr, nil
}

// seed records an already-known count so later rescores hit.
func (sc *SupportCache) seed(key string, epoch uint64, cr driftlog.CountResult) {
	sc.put(supportCacheKey{items: key, epoch: epoch}, cr)
}

// MineCache is the reusable output of one full mine at overlay epoch 0:
// the counts the apriori passes computed, keyed so a later window that
// strictly grew the row set (same lower bound, same or later upper
// bound, no intervening compaction) can count only its delta rows and
// add. The caller (internal/cloud) is responsible for pairing it with
// the matching delta view — MineCachedContext trusts that contract. The
// thresholds may differ between the runs sharing a cache: level 1 holds
// every value, and pairs are merged only under a mask the cached one
// contains (see maskWithin).
type MineCache struct {
	complete bool // full pipeline ran (drift was present)
	totals   driftlog.CountResult
	level1   map[string]map[string]driftlog.CountResult
	// pairs holds every co-occurring pair of the values in mask — the
	// level-1 survivors of the mine that counted them — and no other: a
	// pair absent from it either never occurred or lies outside the mask.
	mask  driftlog.ValueMask
	pairs map[driftlog.PairKey]driftlog.CountResult
	sets  map[string]driftlog.CountResult // itemset key → count (levels ≥ 3)
	// results and th replay the window's final output outright when a
	// later run proves its delta is empty (identical row set ⇒ identical
	// deterministic output, provided the thresholds match too).
	results []Result
	th      Thresholds
}

// mineCacheMaxEntries bounds the retained cross-window cache (a var so
// tests can shrink it). Level 1 holds one entry per distinct value of the
// exact-tier attributes — up to the sketch threshold each — while pairs
// and sets hold level-1 survivors' combinations only, at most
// 1/MinOccurrence values per attribute; an unbounded cache would pin
// whatever a many-attribute window produced until the next mine.
var mineCacheMaxEntries = 1 << 16

// mineCacheRefusals counts windows whose cache was too large to retain.
var mineCacheRefusals atomic.Uint64

// MineCacheRefusals returns the cumulative count of mining runs whose
// cross-window cache exceeded the retention bound and was dropped.
func MineCacheRefusals() uint64 { return mineCacheRefusals.Load() }

// Size returns the number of retained count entries (0 for nil).
func (mc *MineCache) Size() int {
	if mc == nil {
		return 0
	}
	n := len(mc.pairs) + len(mc.sets)
	for _, vals := range mc.level1 {
		n += len(vals)
	}
	return n
}

// bound enforces the retention cap: an over-budget cache drops every
// count map and stays incomplete (forcing the next window to mine
// fresh). Dropping individual entries instead would silently undercount —
// the incremental merges treat a missing previous entry as zero.
func (mc *MineCache) bound() {
	if mc.Size() <= mineCacheMaxEntries {
		return
	}
	mc.complete = false
	mc.level1, mc.mask, mc.pairs, mc.sets = nil, nil, nil, nil
	mc.results = nil
	mineCacheRefusals.Add(1)
}

// sameThresholds reports field-wise equality (Thresholds holds a slice,
// so == does not apply).
func sameThresholds(a, b Thresholds) bool {
	if a.MinOccurrence != b.MinOccurrence || a.MinSupport != b.MinSupport ||
		a.MinConfidence != b.MinConfidence || a.MinRiskRatio != b.MinRiskRatio ||
		a.MaxItems != b.MaxItems || len(a.ExcludeAttrs) != len(b.ExcludeAttrs) {
		return false
	}
	for i := range a.ExcludeAttrs {
		if a.ExcludeAttrs[i] != b.ExcludeAttrs[i] {
			return false
		}
	}
	return true
}

// addCR adds two counts.
func addCR(a, b driftlog.CountResult) driftlog.CountResult {
	a.Total += b.Total
	a.Drift += b.Drift
	return a
}

// mergeLevel1 copy-merges the previous window's group-by with the
// delta's (never mutating prev, which the caller may retain).
func mergeLevel1(prev, delta map[string]map[string]driftlog.CountResult) map[string]map[string]driftlog.CountResult {
	out := make(map[string]map[string]driftlog.CountResult, len(delta))
	for attr, vals := range prev {
		dst := make(map[string]driftlog.CountResult, len(vals))
		for val, cr := range vals {
			dst[val] = cr
		}
		out[attr] = dst
	}
	for attr, vals := range delta {
		dst := out[attr]
		if dst == nil {
			dst = make(map[string]driftlog.CountResult, len(vals))
			out[attr] = dst
		}
		for val, cr := range vals {
			dst[val] = addCR(dst[val], cr)
		}
	}
	return out
}

// maskWithin reports whether every value of mask is also in cached: the
// cached pairs then cover every pair a count under mask can produce, so the
// cache plus the delta's pairs is the window's count.
func maskWithin(mask, cached driftlog.ValueMask) bool {
	for attr, vals := range mask {
		have := cached[attr]
		for val := range vals {
			if !have[val] {
				return false
			}
		}
	}
	return true
}

// mergePairs adds the delta's pair counts to the cached pairs the mask
// still keeps (never mutating prev, which the caller may retain).
func mergePairs(prev, delta map[driftlog.PairKey]driftlog.CountResult, mask driftlog.ValueMask) map[driftlog.PairKey]driftlog.CountResult {
	out := make(map[driftlog.PairKey]driftlog.CountResult, len(prev))
	for k, cr := range prev {
		if mask[k.AttrA][k.ValA] && mask[k.AttrB][k.ValB] {
			out[k] = cr
		}
	}
	for k, cr := range delta {
		out[k] = addCR(out[k], cr)
	}
	return out
}

// mineLevels is how many apriori levels MineStats tells apart: 1, 2, and
// 3 and above together.
const mineLevels = 3

// mineStats are cumulative package counters of the work mining did,
// exposed by the observability layer.
var mineStats mineCounters

type mineCounters struct {
	pairs      atomic.Uint64
	candidates [mineLevels]atomic.Uint64
}

// MineStats is a snapshot of the package-wide mining work counters. They
// count work, not time: at a fixed log and thresholds they repeat to the
// unit on any host.
type MineStats struct {
	// PairsCounted is the pairs the drift log materialized for level 2
	// (over the window on a fresh mine, over the delta on a merge).
	PairsCounted uint64
	// Candidates is the itemsets scored at level 1 (attribute values),
	// level 2 (pairs of level-1 survivors) and levels ≥ 3 (joined
	// candidates that survived apriori's prune step and were counted).
	Candidates [mineLevels]uint64
}

// add folds one finished mine's work into the package counters.
func (ms *mineCounters) add(work MineStats) {
	ms.pairs.Add(work.PairsCounted)
	for i, n := range work.Candidates {
		ms.candidates[i].Add(n)
	}
}

// ReadMineStats returns the cumulative mining work counters across all
// mines in the process. Replayed (empty-delta) mines add nothing.
func ReadMineStats() MineStats {
	st := MineStats{PairsCounted: mineStats.pairs.Load()}
	for i := range st.Candidates {
		st.Candidates[i] = mineStats.candidates[i].Load()
	}
	return st
}
