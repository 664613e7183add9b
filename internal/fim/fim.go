// Package fim implements the frequent-itemset-mining stage of Nazar's
// root-cause analysis (§3.3): an apriori miner over the drift log that
// scores candidate attribute sets with the four metrics of Table 3 —
// occurrence, support, confidence and risk ratio — filters them against
// the paper's thresholds, and ranks them by risk ratio.
package fim

import (
	"context"
	"fmt"
	"math"
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
	// Approx marks counts answered by the drift log's sketch tier (some
	// attribute of the itemset crossed the cardinality threshold);
	// ErrBound is the analytic one-sided error bound of those counts —
	// Counts.Total may exceed the true count by at most ErrBound, never
	// undershoot it. Exact-tier results carry false/0.
	Approx   bool
	ErrBound int
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
// the pair counts when a value is frequent now that was not when prev was
// mined, which are recounted over the view. th need not equal the
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
	// On the sketch tier the cached-delta trade inverts: candidate
	// estimates cost O(depth) probes while every delta count is a row
	// scan over the delta (the exact bitsets were freed at tier-up), so
	// a fresh sketch-backed mine is cheaper than replaying the cache —
	// except for the empty-delta replay below, which stays free.
	incSketched := inc && v.Sketched()
	epoch := epochOf(ov)
	var next *MineCache
	if ov == nil {
		next = &MineCache{}
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
			if incSketched {
				inc = false
				totals, err = sc.count("", nil, ov)
			} else {
				totals = addCR(prev.totals, dt)
				sc.seed("", 0, totals)
			}
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
	excluded := map[string]bool{}
	for _, a := range th.ExcludeAttrs {
		excluded[a] = true
	}

	// Level 1 via one grouped pass (or prev + a grouped pass over only
	// the delta rows). Its survivors are the mask level 2 is counted under.
	var valueCounts map[string]map[string]driftlog.CountResult
	if inc {
		valueCounts = mergeLevel1(prev.level1, delta.AttrValueCounts(nil))
	} else {
		valueCounts = v.AttrValueCounts(ov)
	}
	if next != nil {
		next.level1 = valueCounts
	}
	var work MineStats // this mine's share of the package counters, added once it finishes
	mask := driftlog.ValueMask{}
	var level []counted
	for attr, values := range valueCounts {
		if excluded[attr] {
			continue
		}
		work.Candidates[0] += uint64(len(values))
		for val, cr := range values {
			m := ComputeMetrics(cr, totals.Total, totals.Drift)
			if m.Occurrence >= th.MinOccurrence {
				key := condKey(attr, val)
				sc.seed(key, epoch, cr)
				level = append(level, counted{Itemset{{Attr: attr, Value: val}}, key, cr})
				if mask[attr] == nil {
					mask[attr] = map[string]bool{}
				}
				mask[attr][val] = true
			}
		}
	}
	sortCounted(level)

	var all []counted
	all = append(all, level...)

	// Level 2 via one grouped pass under the mask: downward closure says a
	// pair can be frequent only if both its singles are, so the store counts
	// and materializes pairs of level-1 survivors only. A delta mine adds the
	// delta's pairs to the cached ones while every survivor was already one
	// when the cache was counted; a newly frequent value (or a shorter
	// exclusion list) has pairs the cache never held, and recounts the view.
	if th.MaxItems >= 2 && len(level) > 1 {
		var pairCounts map[driftlog.PairKey]driftlog.CountResult
		if inc && maskWithin(mask, prev.mask) {
			dp := delta.PairCountsMasked(nil, mask)
			work.PairsCounted = uint64(len(dp))
			pairCounts = mergePairs(prev.pairs, dp, mask)
		} else {
			pairCounts = v.PairCountsMasked(ov, mask)
			work.PairsCounted = uint64(len(pairCounts))
		}
		if next != nil {
			next.mask, next.pairs = mask, pairCounts
		}
		work.Candidates[1] = uint64(len(pairCounts))
		var nextLevel []counted
		for pk, cr := range pairCounts {
			m := ComputeMetrics(cr, totals.Total, totals.Drift)
			if m.Occurrence >= th.MinOccurrence {
				// PairKey attributes are already in canonical order.
				key := condKey(pk.AttrA, pk.ValA) + "|" + condKey(pk.AttrB, pk.ValB)
				sc.seed(key, epoch, cr)
				nextLevel = append(nextLevel, counted{Itemset(pk.Conds()), key, cr})
			}
		}
		sortCounted(nextLevel)
		all = append(all, nextLevel...)
		level = nextLevel
	}

	// Levels 3..MaxItems: apriori join of frequent (k-1)-sets, apriori's
	// prune step, then per-candidate counting (candidate counts are small
	// by level 3). Candidates are generated sequentially (cheap,
	// deterministic) and counted in parallel into index-addressed slots, so
	// the result is identical at any worker-pool width. Candidate keys are
	// built once here and reused for dedup, memo seeding, the cross-window
	// cache and the final sort.
	for k := 3; k <= th.MaxItems && len(level) > 1; k++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		frequent := make(map[string]bool, len(level))
		for _, c := range level {
			frequent[c.key] = true
		}
		seen := map[string]bool{}
		var cands []Itemset
		var candKeys []string
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				cand, ok := join(level[i].set, level[j].set)
				if !ok {
					continue
				}
				key := cand.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				if pruned(cand, frequent) {
					continue
				}
				cands = append(cands, cand)
				candKeys = append(candKeys, key)
			}
		}
		work.Candidates[2] += uint64(len(cands))
		counts := make([]driftlog.CountResult, len(cands))
		errs := make([]error, len(cands))
		if err := tensor.ParallelForCtx(ctx, len(cands), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if inc {
					if pc, ok := prev.sets[candKeys[i]]; ok {
						dc, derr := delta.Count(cands[i], nil)
						counts[i], errs[i] = addCR(pc, dc), derr
						continue
					}
				}
				counts[i], errs[i] = v.Count(cands[i], ov)
			}
		}); err != nil {
			return nil, nil, err
		}
		var nextLevel []counted
		for i, cand := range cands {
			if errs[i] != nil {
				return nil, nil, errs[i]
			}
			if next != nil {
				if next.sets == nil {
					next.sets = map[string]driftlog.CountResult{}
				}
				next.sets[candKeys[i]] = counts[i]
			}
			m := ComputeMetrics(counts[i], totals.Total, totals.Drift)
			if m.Occurrence >= th.MinOccurrence {
				sc.seed(candKeys[i], epoch, counts[i])
				nextLevel = append(nextLevel, counted{cand, candKeys[i], counts[i]})
			}
		}
		sortCounted(nextLevel)
		all = append(all, nextLevel...)
		level = nextLevel
	}
	mineStats.add(work)

	// Final filtering and ranking.
	var results []Result
	for _, c := range all {
		m := ComputeMetrics(c.counts, totals.Total, totals.Drift)
		if th.Passes(m) {
			r := Result{Items: c.set, Counts: c.counts, Metrics: m}
			r.Approx, r.ErrBound = v.Approx(c.set, ov)
			results = append(results, r)
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

// Rescore recomputes an itemset's metrics against the view with the given
// overlay — used by counterfactual analysis after clearing drift flags.
func Rescore(v *driftlog.View, set Itemset, ov *driftlog.Overlay) (Result, error) {
	return RescoreCached(NewSupportCache(v), set, ov)
}

// RescoreCached is Rescore through a shared memo: window totals and
// repeated subset counts under one overlay epoch are computed once per
// epoch instead of once per call.
func RescoreCached(sc *SupportCache, set Itemset, ov *driftlog.Overlay) (Result, error) {
	totals, err := sc.count("", nil, ov)
	if err != nil {
		return Result{}, err
	}
	cr, err := sc.count(set.Key(), set, ov)
	if err != nil {
		return Result{}, err
	}
	r := Result{Items: set, Counts: cr, Metrics: ComputeMetrics(cr, totals.Total, totals.Drift)}
	r.Approx, r.ErrBound = sc.v.Approx(set, ov)
	return r, nil
}

// join merges two same-size itemsets into a candidate one item larger,
// requiring distinct attributes and agreement on shared attributes: one
// merge walk over the attr-sorted sets finds b's single condition on an
// attribute a lacks and where it sorts into a, allocating only on success.
func join(a, b Itemset) (Itemset, bool) {
	if len(a) != len(b) {
		return nil, false
	}
	extra, at := -1, 0
	for i, j := 0, 0; j < len(b); {
		switch {
		case i < len(a) && a[i].Attr < b[j].Attr:
			i++
		case i < len(a) && a[i].Attr == b[j].Attr:
			if a[i].Value != b[j].Value {
				return nil, false // conflicting values for one attribute
			}
			i, j = i+1, j+1
		case extra >= 0:
			return nil, false // more than one attribute apart
		default:
			extra, at, j = j, i, j+1
		}
	}
	if extra < 0 {
		return nil, false // the same attributes: nothing to add
	}
	out := append(make(Itemset, 0, len(a)+1), a[:at]...)
	return append(append(out, b[extra]), a[at:]...), true
}

// pruned is apriori's prune step: a candidate with a (k-1)-subset missing
// from the previous level cannot be frequent and need not be counted. On
// the exact tiers counts are monotone under adding a condition. On the
// sketch tier every mask-kept pair is estimated (PairCountsMasked
// enumerates the survivors' cross product whenever MinOccurrence ≥
// 1/SketchConfig.HeavyHitters), so a missing pair's estimate fell below the
// threshold — and, estimates being one-sided, so did its true count — while
// the candidate's own estimate is capped by that pair's.
func pruned(cand Itemset, frequent map[string]bool) bool {
	sub := make(Itemset, len(cand)-1)
	for drop := range cand {
		copy(sub, cand[:drop])
		copy(sub[drop:], cand[drop+1:])
		if !frequent[sub.Key()] {
			return true
		}
	}
	return false
}

// counted pairs a candidate itemset with its canonical key (computed
// once — never rebuilt inside the mining loops) and its window counts.
type counted struct {
	set    Itemset
	key    string
	counts driftlog.CountResult
}

// sortCounted orders candidates deterministically by their precomputed
// keys (the comparator allocates nothing).
func sortCounted(cs []counted) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].key < cs[j].key })
}

// FormatResult renders one row like Table 3.
func FormatResult(r Result) string {
	return fmt.Sprintf("%-32s occ=%.2f sup=%.2f rr=%s conf=%.2f",
		r.Items.String(), r.Metrics.Occurrence, r.Metrics.Support,
		formatRR(r.Metrics.RiskRatio), r.Metrics.Confidence)
}

func formatRR(rr float64) string {
	if math.IsInf(rr, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", rr)
}
