// Package fim implements the frequent-itemset-mining stage of Nazar's
// root-cause analysis (§3.3): an apriori miner over the drift log that
// scores candidate attribute sets with the four metrics of Table 3 —
// occurrence, support, confidence and risk ratio — filters them against
// the paper's thresholds, and ranks them by risk ratio.
package fim

import (
	"cmp"
	"context"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"strings"

	"nazar/internal/driftlog"
)

// Itemset is a set of attribute equality conditions, at most one per
// attribute, kept sorted by attribute name (canonical form).
type Itemset []driftlog.Cond

// NewItemset returns the canonical (attr-sorted) form of the conditions.
func NewItemset(conds ...driftlog.Cond) Itemset {
	s := append(Itemset(nil), conds...)
	sort.Slice(s, func(i, j int) bool { return s[i].Attr < s[j].Attr })
	return s
}

// Key returns a canonical string identity for the itemset: attr=value
// conditions joined by '|', with any '|', '=' or '\' inside an attribute
// or value backslash-escaped — attribute values arrive unvalidated off the
// wire, and unescaped the single condition {a="x|b=y"} would share the key
// of the pair {a=x, b=y} (and its memoized counts). Names and values
// without those bytes appear verbatim.
func (s Itemset) Key() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = condKey(c.Attr, c.Value)
	}
	return strings.Join(parts, "|")
}

// keyEscaper backslash-escapes the three bytes Key gives meaning to; a
// string without them is returned as is.
var keyEscaper = strings.NewReplacer(`\`, `\\`, `|`, `\|`, `=`, `\=`)

// condKey is the Key of the one-condition itemset {attr=val}.
func condKey(attr, val string) string {
	return keyEscaper.Replace(attr) + "=" + keyEscaper.Replace(val)
}

// String renders the itemset like the paper: {snow, New York}.
func (s Itemset) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.Value
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// SubsetOf reports whether every condition of s appears in t. Note the
// data-coverage direction is reversed: a *larger* itemset covers a
// *subset* of the rows.
func (s Itemset) SubsetOf(t Itemset) bool {
	if len(s) > len(t) {
		return false
	}
	i := 0
	for _, c := range t {
		if i < len(s) && s[i] == c {
			i++
		}
	}
	return i == len(s)
}

// Metrics are the four FIM statistics of Table 3.
type Metrics struct {
	// Occurrence = |rows matching set| / |rows|.
	Occurrence float64
	// Support = |drift rows matching set| / |drift rows|.
	Support float64
	// Confidence = |drift rows matching set| / |rows matching set|.
	Confidence float64
	// RiskRatio = P(drift | set) / P(drift | ¬set); +Inf when no
	// drift occurs outside the set.
	RiskRatio float64
	// SmoothedRiskRatio is an m-estimate-shrunk risk ratio: both the
	// inside and outside drift rates are shrunk toward the global
	// drift rate with prior weight priorWeight before taking the
	// ratio. It is always finite and discounts small itemsets, so a
	// ten-row set that happens to be 100 % drift cannot outrank a
	// large, statistically solid cause. Ranking uses it; the
	// thresholds keep the paper's raw RiskRatio.
	SmoothedRiskRatio float64
}

// priorWeight is the m-estimate prior strength for SmoothedRiskRatio:
// each rate behaves as if priorWeight extra rows at the global drift rate
// had been observed.
const priorWeight = 10

// Result is one scored itemset.
type Result struct {
	Items   Itemset
	Counts  driftlog.CountResult
	Metrics Metrics
}

// Thresholds are the FIM acceptance thresholds; the paper's defaults are
// 0.01 / 0.01 / 0.51 / 1.1 with at most 3 attributes per cause.
type Thresholds struct {
	MinOccurrence float64
	MinSupport    float64
	MinConfidence float64
	MinRiskRatio  float64
	MaxItems      int
	// ExcludeAttrs removes attributes (e.g. the model version) from
	// mining.
	ExcludeAttrs []string
}

// DefaultThresholds returns the paper's default configuration.
func DefaultThresholds() Thresholds {
	return Thresholds{
		MinOccurrence: 0.01,
		MinSupport:    0.01,
		MinConfidence: 0.51,
		MinRiskRatio:  1.1,
		MaxItems:      3,
	}
}

// Passes reports whether the metrics clear every threshold.
func (t Thresholds) Passes(m Metrics) bool {
	return m.Occurrence >= t.MinOccurrence &&
		m.Support >= t.MinSupport &&
		m.Confidence >= t.MinConfidence &&
		m.RiskRatio >= t.MinRiskRatio
}

// ComputeMetrics derives the four metrics from the itemset counts and the
// window totals.
func ComputeMetrics(c driftlog.CountResult, totalRows, totalDrift int) Metrics {
	var m Metrics
	if totalRows > 0 {
		m.Occurrence = float64(c.Total) / float64(totalRows)
	}
	if totalDrift > 0 {
		m.Support = float64(c.Drift) / float64(totalDrift)
	}
	if c.Total > 0 {
		m.Confidence = float64(c.Drift) / float64(c.Total)
	}
	outsideRows := totalRows - c.Total
	outsideDrift := totalDrift - c.Drift
	switch {
	case outsideRows <= 0:
		// The set covers every row: there is no contrast group, so it
		// cannot explain *which* rows drifted. Neutral risk.
		m.RiskRatio = 1
	case outsideDrift <= 0:
		// All drift falls inside the set.
		if m.Confidence > 0 {
			m.RiskRatio = math.Inf(1)
		}
	default:
		m.RiskRatio = m.Confidence / (float64(outsideDrift) / float64(outsideRows))
	}
	if outsideRows <= 0 || totalRows <= 0 {
		m.SmoothedRiskRatio = 1
	} else {
		g := float64(totalDrift) / float64(totalRows)
		pIn := (float64(c.Drift) + priorWeight*g) / (float64(c.Total) + priorWeight)
		pOut := (float64(outsideDrift) + priorWeight*g) / (float64(outsideRows) + priorWeight)
		m.SmoothedRiskRatio = pIn / pOut
	}
	return m
}

// MineContext runs apriori over the view (with an optional drift overlay)
// and returns every itemset of size ≤ MaxItems passing all thresholds,
// ranked by risk ratio (descending), with occurrence, then smaller size,
// then key as deterministic tie-breakers. The context is checked at every
// apriori level boundary, so a cancelled analysis returns ctx.Err() without
// finishing the sweep; the result is identical at any worker-pool width.
func MineContext(ctx context.Context, v *driftlog.View, ov *driftlog.Overlay, th Thresholds) ([]Result, error) {
	results, _, err := MineCachedContext(ctx, NewSupportCache(v), nil, nil, ov, th)
	return results, err
}

// MineCachedContext is the full mining entry point: it memoizes every
// count it computes into sc (so set reduction and counterfactual
// rescoring reuse them), and — when ov is nil — returns a MineCache for
// the next window.
//
// When delta and prev are both non-nil (and ov is nil), mining is
// incremental: delta must be the Since-derived delta view of sc.View()
// relative to the window prev was mined over, and every aggregate is
// computed as prev's count, keyed by store ids, plus a count over only the
// delta rows — except level 1 when a value prev's floor left uncounted can
// clear the floor now, and a level ≥ 2 with a candidate prev did not count
// (a value frequent now that was not then), which are recounted over the
// view. th need not equal the thresholds prev was mined under. The results are identical to a fresh
// mine by construction (counts are exact integers and additive over the
// delta decomposition).
func MineCachedContext(ctx context.Context, sc *SupportCache, delta *driftlog.View, prev *MineCache, ov *driftlog.Overlay, th Thresholds) ([]Result, *MineCache, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if th.MaxItems <= 0 {
		th.MaxItems = 3
	}
	v := sc.View()
	inc := delta != nil && prev != nil && prev.complete && ov == nil
	epoch := epochOf(ov)
	var next *MineCache
	if ov == nil {
		next = &MineCache{sets: map[string]driftlog.CountResult{}}
	}

	var totals driftlog.CountResult
	var err error
	if inc {
		var dt driftlog.CountResult
		dt, err = delta.Count(nil, nil)
		if err == nil {
			if dt.Total == 0 && sameThresholds(th, prev.th) {
				// Empty delta: the row set is identical to the window
				// prev was mined over, so the deterministic output is
				// too — replay it without touching a single bitmap.
				sc.seed("", 0, prev.totals)
				return append([]Result(nil), prev.results...), prev, nil
			}
			totals = addCR(prev.totals, dt)
			sc.seed("", 0, totals)
		}
	} else {
		totals, err = sc.count("", nil, ov)
	}
	if err != nil {
		return nil, nil, err
	}
	if next != nil {
		next.totals = totals
	}
	if totals.Drift == 0 {
		// Nothing drifted: no causes to mine. The cache stays incomplete
		// (totals only), so a grown window re-mines from scratch.
		return nil, next, nil
	}

	// Level 1: one dense array per attribute indexed by store id, from one
	// grouped pass (or prev's arrays plus a grouped pass over only the delta
	// rows) that counts only the values whose row bound clears the floor. Its
	// survivors, numbered, are what levels ≥ 2 join.
	floor := driftlog.Floor{Rows: totals.Total, MinOccurrence: th.MinOccurrence, Exclude: th.ExcludeAttrs}
	var level1 []driftlog.AttrCounts
	if inc {
		level1 = mergeLevel1(prev.level1, delta.AttrValueCounts(nil, floor))
	}
	if level1 == nil {
		level1 = v.AttrValueCounts(ov, floor)
	}
	if next != nil {
		next.level1 = level1
	}
	// ComputeMetrics' Occurrence against the floor, as level 1 applied it.
	frequent := func(cr driftlog.CountResult) bool { return floor.Clears(cr.Total) }
	var work MineStats // this mine's share of the package counters, added once it finishes
	var level []counted
	for _, ac := range level1 {
		for id, cr := range ac.Counts {
			if cr.Total > 0 {
				work.Candidates[0]++
				if frequent(cr) {
					level = append(level, counted{set: Itemset{{Attr: ac.Name, Value: ac.Dict[id]}}, counts: cr, item: driftlog.Item{Pos: ac.Pos, ID: uint32(id)}})
				}
			}
		}
	}
	sg := numberSingles(level)
	for _, c := range level {
		sc.seed(c.key, epoch, c.counts)
	}

	all := slices.Clone(level)

	// Levels 2..MaxItems: apriori-gen by prefix join, one group per (k-1)-set
	// extended by the last codes it joins with, and one extension count of
	// them all. Only a frequent candidate gets an Itemset and a key, reused
	// for memo seeding and the final ranking; the cross-window cache keys by id.
	var buf []byte
	for k := 2; k <= th.MaxItems && len(level) > 1; k++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		count := sg.countSets
		if k == 2 {
			count = sg.countPairs
		}
		groups := sg.joinGroups(level)
		counts := count(v, delta, prev, ov, inc, groups, next, &work)
		var nextLevel []counted
		for gi, g := range groups {
			for x, code := range g.ext {
				if cr := counts[gi][x]; frequent(cr) {
					buf = binary.BigEndian.AppendUint32(append(buf[:0], level[g.prefix].codes...), code)
					c := sg.counted(string(buf))
					c.counts = cr
					sc.seed(c.key, epoch, cr)
					nextLevel = append(nextLevel, c) // groups and their extensions ascend by codes: so does nextLevel
				}
			}
		}
		all = append(all, nextLevel...)
		level = nextLevel
	}
	mineStats.add(work)

	// Final filtering and ranking.
	var results []Result
	for _, c := range all {
		m := ComputeMetrics(c.counts, totals.Total, totals.Drift)
		if th.Passes(m) {
			results = append(results, Result{Items: c.set, Counts: c.counts, Metrics: m})
		}
	}
	Rank(results)
	if next != nil {
		next.complete = true
		next.results = append([]Result(nil), results...)
		next.th = th
		next.bound()
	}
	return results, next, nil
}

// Rank orders results by smoothed risk ratio, occurrence, smaller size,
// key.
func Rank(results []Result) {
	sort.Slice(results, func(i, j int) bool {
		a, b := results[i], results[j]
		if a.Metrics.SmoothedRiskRatio != b.Metrics.SmoothedRiskRatio {
			return a.Metrics.SmoothedRiskRatio > b.Metrics.SmoothedRiskRatio
		}
		if a.Metrics.Occurrence != b.Metrics.Occurrence {
			return a.Metrics.Occurrence > b.Metrics.Occurrence
		}
		if len(a.Items) != len(b.Items) {
			return len(a.Items) < len(b.Items)
		}
		return a.Items.Key() < b.Items.Key()
	})
}

// RescoreCached recomputes an itemset's metrics against the cache's
// view with the given overlay — used by counterfactual analysis after
// clearing drift flags. Window totals and repeated subset counts under
// one overlay epoch are computed once per epoch through the shared memo.
func RescoreCached(sc *SupportCache, set Itemset, ov *driftlog.Overlay) (Result, error) {
	totals, err := sc.count("", nil, ov)
	if err != nil {
		return Result{}, err
	}
	cr, err := sc.count(set.Key(), set, ov)
	if err != nil {
		return Result{}, err
	}
	return Result{Items: set, Counts: cr, Metrics: ComputeMetrics(cr, totals.Total, totals.Drift)}, nil
}

// singles are a mine's level-1 survivors, numbered in (attribute, value)
// order: conds[c] is the condition with code c, keys[c] its condKey and
// items[c] its store ids. An itemset is canonical exactly when its codes
// ascend. A counted set names its conditions by a code string, codeBytes
// big-endian bytes per code, so byte order is code order.
type singles struct {
	conds []driftlog.Cond
	keys  []string
	items []driftlog.Item
}

const codeBytes = 4

// numberSingles sorts the level-1 survivors into (attribute, value) order and
// numbers them, filling in each one's key and code string.
func numberSingles(level []counted) *singles {
	slices.SortFunc(level, func(a, b counted) int {
		return cmp.Or(strings.Compare(a.set[0].Attr, b.set[0].Attr), strings.Compare(a.set[0].Value, b.set[0].Value))
	})
	sg := &singles{}
	for i := range level {
		c, cond := &level[i], level[i].set[0]
		c.key, c.codes = condKey(cond.Attr, cond.Value), string(binary.BigEndian.AppendUint32(nil, uint32(i)))
		sg.conds, sg.keys, sg.items = append(sg.conds, cond), append(sg.keys, c.key), append(sg.items, c.item)
	}
	return sg
}

// codeAt is the i-th code of a code string (-1: the last).
func codeAt(codes string, i int) uint32 {
	if i < 0 {
		i = len(codes)/codeBytes - 1
	}
	b := codes[i*codeBytes : (i+1)*codeBytes]
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// counted returns the set a code string names, with its key joined from the
// conditions' keys: Itemset.Key, as the codes ascend. Counts are the caller's.
func (sg *singles) counted(codes string) counted {
	set, keys := make(Itemset, len(codes)/codeBytes), make([]string, len(codes)/codeBytes)
	for i := range set {
		set[i], keys[i] = sg.conds[codeAt(codes, i)], sg.keys[codeAt(codes, i)]
	}
	return counted{set: set, key: strings.Join(keys, "|"), codes: codes}
}

// candGroup is the candidates apriori-gen makes from the level's set at index
// prefix, extended by each of ext's codes (ascending), and as Group takes it.
type candGroup struct {
	prefix int
	ext    []uint32
	driftlog.Group
}

// joinGroups is apriori-gen over a level of (k-1)-sets in code order: two
// sets that share their first k-2 codes and whose last codes lie on
// different attributes join into the k-set of the prefix and both last codes,
// so every canonical k-set arises from one pair only — the first set's group,
// extended by the second's last code. The prune step keeps a candidate when
// its other k-2 (k-1)-subsets are in the level too (counts only fall as a
// condition is added), looking each up by a code string built in a reused
// buffer. Groups, and the extensions within one, come out in code order; a
// set that extends to nothing makes no group.
func (sg *singles) joinGroups(level []counted) []candGroup {
	inLevel := make(map[string]bool, len(level))
	for _, c := range level {
		inLevel[c.codes] = true
	}
	var out []candGroup
	var cand, sub []byte
	for lo, hi := 0, 0; lo < len(level); lo = hi {
		prefix := level[lo].codes[:len(level[lo].codes)-codeBytes]
		for hi = lo + 1; hi < len(level) && strings.HasPrefix(level[hi].codes, prefix); hi++ {
		}
		for i := lo; i < hi; i++ {
			g := candGroup{prefix: i}
			for j := i + 1; j < hi; j++ {
				last := codeAt(level[j].codes, -1)
				if sg.conds[codeAt(level[i].codes, -1)].Attr == sg.conds[last].Attr {
					continue // two values of one attribute: the prune would drop it too
				}
				cand = append(append(cand[:0], level[i].codes...), level[j].codes[len(prefix):]...)
				kept := true
				for d := 0; kept && d < len(prefix); d += codeBytes {
					sub = append(append(sub[:0], cand[:d]...), cand[d+codeBytes:]...)
					kept = inLevel[string(sub)]
				}
				if kept {
					g.ext, g.Ext = append(g.ext, last), append(g.Ext, sg.items[last])
				}
			}
			if len(g.ext) > 0 {
				for c := range len(level[i].codes) / codeBytes {
					g.Prefix = append(g.Prefix, sg.items[codeAt(level[i].codes, c)])
				}
				out = append(out, g)
			}
		}
	}
	return out
}

// countLevel counts cands over the delta when merge, else over the view.
func countLevel(v, delta *driftlog.View, ov *driftlog.Overlay, merge bool, cands []candGroup) [][]driftlog.CountResult {
	groups := make([]driftlog.Group, len(cands))
	for i, g := range cands {
		groups[i] = g.Group
	}
	if merge {
		return delta.ExtensionCounts(nil, groups)
	}
	return v.ExtensionCounts(ov, groups)
}

// countPairs counts level 2's candidates, the level-1 survivors' pairs: over
// the delta, added to prev's pairs by integer key, when every survivor was
// one in prev (a pair prev lacks had no row then); over the view otherwise.
// next keeps the survivors and their pairs with a row.
func (sg *singles) countPairs(v, delta *driftlog.View, prev *MineCache, ov *driftlog.Overlay, inc bool, cands []candGroup, next *MineCache, work *MineStats) [][]driftlog.CountResult {
	mask := make([]uint64, len(sg.items))
	for i, it := range sg.items {
		mask[i] = pack(it)
	}
	slices.Sort(mask)
	merge := inc && !slices.ContainsFunc(mask, func(x uint64) bool { _, ok := slices.BinarySearch(prev.mask, x); return !ok })
	counts, pairs := countLevel(v, delta, ov, merge, cands), map[[2]uint64]driftlog.CountResult{}
	for gi, g := range cands {
		for x, e := range g.Ext {
			key, cr := [2]uint64{pack(g.Prefix[0]), pack(e)}, &counts[gi][x]
			if cr.Total > 0 {
				work.PairsCounted++
			}
			if merge {
				*cr = addCR(*cr, prev.pairs[key])
			}
			if cr.Total > 0 {
				work.Candidates[1]++
				pairs[key] = *cr
			}
		}
	}
	if next != nil {
		next.mask, next.pairs = mask, pairs
	}
	return counts
}

// countSets counts a level ≥ 3's candidates: over the delta, added to prev's
// counts, when prev counted every one of them; over the view otherwise.
// next keeps every candidate's count, keyed by its store ids.
func (sg *singles) countSets(v, delta *driftlog.View, prev *MineCache, ov *driftlog.Overlay, inc bool, cands []candGroup, next *MineCache, work *MineStats) [][]driftlog.CountResult {
	keys, merge := make([][]string, len(cands)), inc
	var key []byte
	for gi, g := range cands {
		for _, e := range g.Ext {
			key = key[:0]
			for _, it := range g.Prefix {
				key = binary.BigEndian.AppendUint64(key, pack(it))
			}
			key = binary.BigEndian.AppendUint64(key, pack(e))
			keys[gi] = append(keys[gi], string(key))
			if merge {
				_, merge = prev.sets[string(key)]
			}
		}
	}
	counts := countLevel(v, delta, ov, merge, cands)
	for gi, g := range cands {
		work.Candidates[2] += uint64(len(g.ext))
		for x, k := range keys[gi] {
			if merge {
				counts[gi][x] = addCR(counts[gi][x], prev.sets[k])
			}
			if next != nil {
				next.sets[k] = counts[gi][x]
			}
		}
	}
	return counts
}

// pack is an Item as one integer: its position above its store id.
func pack(it driftlog.Item) uint64 { return uint64(it.Pos)<<32 | uint64(it.ID) }

// counted is a frequent itemset with its key and code string (each built
// once, never inside the mining loops) and its window counts; a single
// carries its store ids too.
type counted struct {
	set    Itemset
	key    string
	codes  string
	counts driftlog.CountResult
	item   driftlog.Item
}
