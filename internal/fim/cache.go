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
// produced (totals, level-1 arrays, the level-1 survivors' pair counts,
// per-candidate set counts), keyed by store ids, so re-mining a grown
// window only counts the delta rows and adds by integer key (see
// MineCachedContext).
package fim

import (
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

// SupportCache memoizes support counts against one view. It is safe for
// concurrent use (parallel candidate counting and subset rescoring share
// it). Its traffic bounds it: a mine seeds its frequent itemsets and the
// window total, and the counterfactual then rescores, per association,
// its coarse set, its subsets (at most 2^k − 2 for a k-itemset: 6 at the
// default MaxItems of 3) and one window total per overlay epoch, each
// accepted cause's ClearDrift opening one epoch. A mine with F frequent
// itemsets and A ≤ F associations so leaves at most F + 1 + 8A entries.
type SupportCache struct {
	v  *driftlog.View
	mu sync.Mutex
	m  map[supportCacheKey]driftlog.CountResult
}

// NewSupportCache returns an empty memo over v.
func NewSupportCache(v *driftlog.View) *SupportCache {
	return &SupportCache{v: v, m: map[supportCacheKey]driftlog.CountResult{}}
}

// View returns the view the cache memoizes against.
func (sc *SupportCache) View() *driftlog.View { return sc.v }

// supportCacheHits / supportCacheMisses are cumulative package counters,
// exposed as gauges by the observability layer.
var (
	supportCacheHits   atomic.Uint64
	supportCacheMisses atomic.Uint64
)

// SupportCacheStats is a snapshot of the package-wide memo counters.
type SupportCacheStats struct {
	Hits, Misses uint64
}

// ReadSupportCacheStats returns the cumulative hit/miss counters across
// all SupportCaches in the process.
func ReadSupportCacheStats() SupportCacheStats {
	return SupportCacheStats{Hits: supportCacheHits.Load(), Misses: supportCacheMisses.Load()}
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
	epoch := epochOf(ov)
	sc.mu.Lock()
	cr, ok := sc.m[supportCacheKey{items: key, epoch: epoch}]
	sc.mu.Unlock()
	if ok {
		supportCacheHits.Add(1)
		return cr, nil
	}
	supportCacheMisses.Add(1)
	cr, err := sc.v.Count(set, ov)
	if err != nil {
		return driftlog.CountResult{}, err
	}
	sc.seed(key, epoch, cr)
	return cr, nil
}

// seed records an already-known count so later rescores hit.
func (sc *SupportCache) seed(key string, epoch uint64, cr driftlog.CountResult) {
	sc.mu.Lock()
	sc.m[supportCacheKey{items: key, epoch: epoch}] = cr
	sc.mu.Unlock()
}

// MineCache is the reusable output of one full mine at overlay epoch 0:
// the counts the apriori passes computed, keyed by store ids (a value as
// its attribute position above its id, pack) so a later window that
// strictly grew the row set (same lower bound, same or later upper bound,
// no intervening compaction) can count only its delta rows and add. The
// caller (internal/cloud) is responsible for pairing it with the matching
// delta view — MineCachedContext trusts that contract. The thresholds may
// differ between the runs sharing a cache: level 1 marks the values its
// floor left uncounted, which a later floor that keeps one recounts (see
// mergeLevel1), and a level is merged only when the cache counted all of its
// candidates (see countPairs and countSets).
type MineCache struct {
	complete bool // full pipeline ran (drift was present)
	totals   driftlog.CountResult
	level1   []driftlog.AttrCounts // AttrValueCounts' arrays, by store id, Uncounted where the floor skipped
	// mask is the level-1 survivors of the mine that counted pairs, packed
	// and ascending; pairs holds every co-occurring pair of them, keyed by
	// the two packed values in (attribute, value) order, and no other: a
	// pair absent from it either never occurred or lies outside the mask.
	mask  []uint64
	pairs map[[2]uint64]driftlog.CountResult
	sets  map[string]driftlog.CountResult // levels ≥ 3: the packed values, big-endian in (attribute, value) order → count
	// results and th replay the window's final output outright when a
	// later run proves its delta is empty (identical row set ⇒ identical
	// deterministic output, provided the thresholds match too).
	results []Result
	th      Thresholds
}

// mineCacheMaxEntries bounds the retained cross-window cache (a var so
// tests can shrink it). Level 1 holds one slot per dictionary value of every
// attribute — a tiered one's included — while pairs
// and sets hold level-1 survivors' combinations only, at most
// 1/MinOccurrence values per attribute; an unbounded cache would pin
// whatever a many-attribute window produced until the next mine.
var mineCacheMaxEntries = 1 << 16

// mineCacheRefusals counts windows whose cache was too large to retain.
var mineCacheRefusals atomic.Uint64

// MineCacheRefusals returns the cumulative count of mining runs whose
// cross-window cache exceeded the retention bound and was dropped.
func MineCacheRefusals() uint64 { return mineCacheRefusals.Load() }

// Size returns the number of retained count entries, level 1's dense slots
// included (0 for nil).
func (mc *MineCache) Size() int {
	if mc == nil {
		return 0
	}
	n := len(mc.pairs) + len(mc.sets)
	for _, ac := range mc.level1 {
		n += len(ac.Counts)
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

// mergeLevel1 adds the previous window's level-1 counts into the delta's by
// store id and returns the delta's arrays, which are fresh, so prev (which
// the caller may retain) is never written. Both come from one store's
// append-only dictionaries, the delta's pinned later, so the delta names
// every attribute prev does and each prev array fits in the delta's; both
// lists are in name order. A slot the delta left Uncounted stays so: its
// value cannot clear the grown window's floor. One the delta counted but prev
// did not has no count for the rows before the delta: mergeLevel1 returns
// nil, and the caller counts level 1 over the whole window.
func mergeLevel1(prev, delta []driftlog.AttrCounts) []driftlog.AttrCounts {
	j := 0
	for _, p := range prev {
		for delta[j].Name != p.Name {
			j++
		}
		dst := delta[j].Counts[:len(p.Counts)]
		for id, cr := range p.Counts {
			switch {
			case dst[id].Total == driftlog.Uncounted:
			case cr.Total == driftlog.Uncounted:
				return nil
			default:
				dst[id] = addCR(dst[id], cr)
			}
		}
	}
	return delta
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
