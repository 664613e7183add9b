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
	"nazar/internal/tensor"
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
// apriori level boundary and between candidate-counting chunks, so a
// cancelled analysis returns ctx.Err() without finishing the sweep; the
// result is identical at any worker-pool width.
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
// computed as prev's count plus a count over only the delta rows — except
// level 1 when a value prev's floor left uncounted can clear the floor now,
// and the pair counts when a value is frequent now that was not when prev
// was mined, which are recounted over the view. th need not equal the
// thresholds prev was mined under. The results are identical to a fresh
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
	// survivors are the mask level 2 is counted under.
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
					level = append(level, counted{set: Itemset{{Attr: ac.Name, Value: ac.Dict[id]}}, counts: cr})
				}
			}
		}
	}
	sg := numberSingles(level)
	for _, c := range level {
		sc.seed(c.key, epoch, c.counts)
	}

	all := slices.Clone(level)

	// Level 2 via one grouped pass under the mask: downward closure says a
	// pair can be frequent only if both its singles are, so the store counts
	// and materializes pairs of level-1 survivors only. A delta mine adds the
	// delta's pairs to the cached ones while every survivor was already one
	// when the cache was counted; a newly frequent value (or a shorter
	// exclusion list) has pairs the cache never held, and recounts the view.
	if th.MaxItems >= 2 && len(level) > 1 {
		var pairCounts map[driftlog.PairKey]driftlog.CountResult
		if inc && maskWithin(sg.mask, prev.mask) {
			dp := delta.PairCountsMasked(nil, sg.mask)
			work.PairsCounted = uint64(len(dp))
			pairCounts = mergePairs(prev.pairs, dp, sg.mask)
		} else {
			pairCounts = v.PairCountsMasked(ov, sg.mask)
			work.PairsCounted = uint64(len(pairCounts))
		}
		if next != nil {
			next.mask, next.pairs = sg.mask, pairCounts
		}
		work.Candidates[1] = uint64(len(pairCounts))
		var nextLevel []counted
		for pk, cr := range pairCounts {
			if frequent(cr) {
				// PairKey attributes are in canonical order: the two codes ascend.
				c := sg.counted(sg.code[driftlog.Cond{Attr: pk.AttrA, Value: pk.ValA}] + sg.code[driftlog.Cond{Attr: pk.AttrB, Value: pk.ValB}])
				c.counts = cr
				sc.seed(c.key, epoch, cr)
				nextLevel = append(nextLevel, c)
			}
		}
		slices.SortFunc(nextLevel, func(a, b counted) int { return strings.Compare(a.codes, b.codes) })
		all = append(all, nextLevel...)
		level = nextLevel
	}

	// Levels 3..MaxItems: apriori-gen by prefix join over the codes, then
	// per-candidate counting (candidate counts are small by level 3).
	// Candidates are generated sequentially (cheap, deterministic) and
	// counted in parallel into index-addressed slots, so the result is
	// identical at any worker-pool width. A candidate's key is built once,
	// after the prune, and reused for memo seeding, the cross-window cache
	// and the final ranking.
	for k := 3; k <= th.MaxItems && len(level) > 1; k++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		cands := sg.prefixJoin(level)
		work.Candidates[2] += uint64(len(cands))
		errs := make([]error, len(cands))
		if err := tensor.ParallelForCtx(ctx, len(cands), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c := &cands[i]
				if inc {
					if pc, ok := prev.sets[c.key]; ok {
						dc, derr := delta.Count(c.set, nil)
						c.counts, errs[i] = addCR(pc, dc), derr
						continue
					}
				}
				c.counts, errs[i] = v.Count(c.set, ov)
			}
		}); err != nil {
			return nil, nil, err
		}
		var nextLevel []counted
		for i, c := range cands {
			if errs[i] != nil {
				return nil, nil, errs[i]
			}
			if next != nil {
				next.sets[c.key] = c.counts
			}
			if frequent(c.counts) {
				sc.seed(c.key, epoch, c.counts)
				nextLevel = append(nextLevel, c) // cands ascend by codes: so does nextLevel
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
// order: conds[c] is the condition with code c, keys[c] its condKey, code
// maps a condition to its code string, and mask holds them all. An itemset
// is canonical exactly when its codes ascend. A counted set names its
// conditions by a code string, codeBytes big-endian bytes per code, so byte
// order is code order.
type singles struct {
	conds []driftlog.Cond
	keys  []string
	code  map[driftlog.Cond]string
	mask  driftlog.ValueMask
}

const codeBytes = 4

// numberSingles sorts the level-1 survivors into (attribute, value) order and
// numbers them, filling in each one's key and code string.
func numberSingles(level []counted) *singles {
	slices.SortFunc(level, func(a, b counted) int {
		return cmp.Or(strings.Compare(a.set[0].Attr, b.set[0].Attr), strings.Compare(a.set[0].Value, b.set[0].Value))
	})
	sg := &singles{code: make(map[driftlog.Cond]string, len(level)), mask: driftlog.ValueMask{}}
	for i := range level {
		c, cond := &level[i], level[i].set[0]
		c.key, c.codes = condKey(cond.Attr, cond.Value), string(binary.BigEndian.AppendUint32(nil, uint32(i)))
		sg.conds, sg.keys, sg.code[cond] = append(sg.conds, cond), append(sg.keys, c.key), c.codes
		if sg.mask[cond.Attr] == nil {
			sg.mask[cond.Attr] = map[string]bool{}
		}
		sg.mask[cond.Attr][cond.Value] = true
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

// prefixJoin is apriori-gen over a level of (k-1)-sets in code order: two
// sets that share their first k-2 codes and whose last codes lie on
// different attributes join into the k-set of the prefix and both last codes,
// so every canonical k-set arises from one pair only. The prune step keeps a
// candidate when its other k-2 (k-1)-subsets are in the level too (counts
// only fall as a condition is added), looking each up by a code string built
// in a reused buffer. Only kept candidates get an Itemset and a key; they
// come out in code order.
func (sg *singles) prefixJoin(level []counted) []counted {
	inLevel := make(map[string]bool, len(level))
	for _, c := range level {
		inLevel[c.codes] = true
	}
	var out []counted
	var cand, sub []byte
	for lo, hi := 0, 0; lo < len(level); lo = hi {
		prefix := level[lo].codes[:len(level[lo].codes)-codeBytes]
		for hi = lo + 1; hi < len(level) && strings.HasPrefix(level[hi].codes, prefix); hi++ {
		}
		for i := lo; i < hi; i++ {
			for j := i + 1; j < hi; j++ {
				if sg.conds[codeAt(level[i].codes, -1)].Attr == sg.conds[codeAt(level[j].codes, -1)].Attr {
					continue // two values of one attribute: the prune would drop it too
				}
				cand = append(append(cand[:0], level[i].codes...), level[j].codes[len(prefix):]...)
				kept := true
				for d := 0; kept && d < len(prefix); d += codeBytes {
					sub = append(append(sub[:0], cand[:d]...), cand[d+codeBytes:]...)
					kept = inLevel[string(sub)]
				}
				if kept {
					out = append(out, sg.counted(string(cand)))
				}
			}
		}
	}
	return out
}

// counted is a candidate itemset with its key and code string (each built
// once, never inside the mining loops) and its window counts.
type counted struct {
	set    Itemset
	key    string
	codes  string
	counts driftlog.CountResult
}
