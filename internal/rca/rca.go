// Package rca implements Nazar's root-cause analysis (§3.3, Algorithm 1):
// frequent-itemset mining followed by the paper's two novel pruning
// passes — *set reduction*, which merges fine-grained causes into their
// highest-ranked coarser cover, and *counterfactual analysis*, which
// re-tests lower-ranked causes after the drift explained by higher-ranked
// causes has been counterfactually marked as non-drift.
package rca

import (
	"context"
	"fmt"
	"runtime/pprof"

	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/tensor"
)

// Cause is one final root cause selected for adaptation.
type Cause struct {
	Items fim.Itemset
	// Metrics are the cause's original FIM metrics (risk ratio is used
	// downstream to break version-selection ties).
	Metrics fim.Metrics
	// Approx / ErrBound carry the sketch-tier annotation of the counts
	// behind Metrics: when some attribute of the cause is on the drift
	// log's approximate tier, the supporting counts are one-sided
	// estimates that may exceed the truth by at most ErrBound rows.
	Approx   bool
	ErrBound int
}

// Key returns the canonical identity of the cause.
func (c Cause) Key() string { return c.Items.Key() }

// String renders the cause like the paper: {snow, New York}.
func (c Cause) String() string { return c.Items.String() }

// Matches reports whether an entry's attributes satisfy every condition
// of the cause.
func (c Cause) Matches(attrs map[string]string) bool {
	for _, cond := range c.Items {
		if attrs[cond.Attr] != cond.Value {
			return false
		}
	}
	return true
}

// MatchCount returns how many of the cause's conditions appear in attrs
// with equal values (len(Items) when Matches).
func (c Cause) MatchCount(attrs map[string]string) int {
	n := 0
	for _, cond := range c.Items {
		if attrs[cond.Attr] == cond.Value {
			n++
		}
	}
	return n
}

// Association maps one coarse-grained cause to the finer-grained causes
// set reduction merged into it, in rank order.
type Association struct {
	Coarse  fim.Result
	Subsets []fim.Result
}

// SetReduction groups the ranked FIM results (Figure 3b): each result is
// merged into the highest-ranked earlier cause whose attribute set it
// refines (attribute-superset = data-subset); results with no coarser
// cover become coarse keys themselves. The returned associations preserve
// rank order of their coarse keys.
func SetReduction(results []fim.Result) []Association {
	var assocs []Association
next:
	for _, r := range results {
		for i := range assocs {
			if assocs[i].Coarse.Items.SubsetOf(r.Items) {
				assocs[i].Subsets = append(assocs[i].Subsets, r)
				continue next
			}
		}
		assocs = append(assocs, Association{Coarse: r})
	}
	return assocs
}

// Config parameterizes the analysis.
type Config struct {
	Thresholds fim.Thresholds
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config { return Config{Thresholds: fim.DefaultThresholds()} }

// Mode selects which stages of the analysis run (the Table 5 ablation).
type Mode int

const (
	// FIMOnly keeps every itemset passing the FIM thresholds.
	FIMOnly Mode = iota
	// FIMSetReduction keeps the coarse keys after set reduction.
	FIMSetReduction
	// Full runs Algorithm 1: set reduction plus counterfactual
	// analysis. This is Nazar's default.
	Full
)

func (m Mode) String() string {
	switch m {
	case FIMOnly:
		return "fim"
	case FIMSetReduction:
		return "fim+set-reduction"
	case Full:
		return "fim+set-reduction+cf"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// AnalyzeContext runs root-cause analysis over the drift-log view in the
// given mode and returns the final causes in rank order. Mining and
// counterfactual rescoring both check the context between stages and
// between worker-pool chunks, returning ctx.Err() when the analysis is
// abandoned mid-window.
func AnalyzeContext(ctx context.Context, v *driftlog.View, cfg Config, mode Mode) ([]Cause, error) {
	causes, _, err := AnalyzeIncrementalContext(ctx, v, nil, nil, cfg, mode)
	return causes, err
}

// AnalyzeIncrementalContext is AnalyzeContext with the cross-window
// mining cache threaded through: when delta is the Since-derived delta
// view of v relative to the window prevMine was produced over, the
// apriori passes count only the delta rows (see fim.MineCachedContext).
// It returns the causes plus the mining cache of this window for the
// next run; passing nil delta/prevMine degrades to a fresh analysis.
//
// All three stages share one support memo, so set reduction and
// counterfactual rescoring reuse mining's counts; each stage runs under
// a pprof label (nazar_stage = mine / set-reduction / counterfactual)
// so CPU profiles attribute time per stage.
func AnalyzeIncrementalContext(ctx context.Context, v *driftlog.View, delta *driftlog.View, prevMine *fim.MineCache, cfg Config, mode Mode) ([]Cause, *fim.MineCache, error) {
	sc := fim.NewSupportCache(v)
	var results []fim.Result
	var nextMine *fim.MineCache
	var err error
	pprof.Do(ctx, pprof.Labels("nazar_stage", "mine"), func(ctx context.Context) {
		results, nextMine, err = fim.MineCachedContext(ctx, sc, delta, prevMine, nil, cfg.Thresholds)
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("rca: mining: %w", err)
	}
	switch mode {
	case FIMOnly:
		return toCauses(results), nextMine, nil
	case FIMSetReduction:
		var causes []Cause
		pprof.Do(ctx, pprof.Labels("nazar_stage", "set-reduction"), func(context.Context) {
			assocs := SetReduction(results)
			coarse := make([]fim.Result, len(assocs))
			for i, a := range assocs {
				coarse[i] = a.Coarse
			}
			causes = toCauses(coarse)
		})
		return causes, nextMine, nil
	case Full:
		var assocs []Association
		pprof.Do(ctx, pprof.Labels("nazar_stage", "set-reduction"), func(context.Context) {
			assocs = SetReduction(results)
		})
		var causes []Cause
		pprof.Do(ctx, pprof.Labels("nazar_stage", "counterfactual"), func(ctx context.Context) {
			causes, err = counterfactualCached(ctx, sc, assocs, cfg.Thresholds)
		})
		if err != nil {
			return nil, nil, err
		}
		return causes, nextMine, nil
	default:
		return nil, nil, fmt.Errorf("rca: unknown mode %v", mode)
	}
}

// CounterfactualContext implements the loop of Algorithm 1 (Figure 3c):
// walk the coarse associations in rank order; if the coarse cause is
// still statistically significant after earlier causes' drift has been
// counterfactually cleared, accept it and clear its drift; otherwise
// fall back to any of its subsets that remain significant. The context
// is checked once per association and between rescoring chunks.
func CounterfactualContext(ctx context.Context, v *driftlog.View, assocs []Association, th fim.Thresholds) ([]Cause, error) {
	return counterfactualCached(ctx, fim.NewSupportCache(v), assocs, th)
}

// counterfactualCached runs the counterfactual loop on a bitset overlay
// (released back to its pool on return) with all rescoring going
// through the shared support memo: totals and repeated subset counts
// under one overlay epoch are counted once, and a mutating ClearDrift
// advances the epoch so stale entries can never be served.
func counterfactualCached(ctx context.Context, sc *fim.SupportCache, assocs []Association, th fim.Thresholds) ([]Cause, error) {
	v := sc.View()
	overlay := v.DriftOverlay()
	defer overlay.Release()
	var causes []Cause
	for _, a := range assocs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		re, err := fim.RescoreCached(sc, a.Coarse.Items, overlay)
		if err != nil {
			return nil, fmt.Errorf("rca: rescoring %s: %w", a.Coarse.Items, err)
		}
		if th.Passes(re.Metrics) {
			causes = append(causes, Cause{Items: a.Coarse.Items, Metrics: a.Coarse.Metrics,
				Approx: a.Coarse.Approx, ErrBound: a.Coarse.ErrBound})
			if _, err := v.ClearDrift(a.Coarse.Items, overlay); err != nil {
				return nil, fmt.Errorf("rca: clearing %s: %w", a.Coarse.Items, err)
			}
			continue
		}
		// The coarse cause lost significance: re-test its subsets. The
		// overlay is read-only here (ClearDrift only ran for accepted
		// coarse causes), so the rescores fan out over the worker pool;
		// acceptance is decided afterwards in rank order, keeping the
		// result deterministic at any pool width.
		reSubs := make([]fim.Result, len(a.Subsets))
		errs := make([]error, len(a.Subsets))
		if err := tensor.ParallelForCtx(ctx, len(a.Subsets), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				reSubs[i], errs[i] = fim.RescoreCached(sc, a.Subsets[i].Items, overlay)
			}
		}); err != nil {
			return nil, err
		}
		for i, sub := range a.Subsets {
			if errs[i] != nil {
				return nil, fmt.Errorf("rca: rescoring %s: %w", sub.Items, errs[i])
			}
			if th.Passes(reSubs[i].Metrics) {
				causes = append(causes, Cause{Items: sub.Items, Metrics: sub.Metrics,
					Approx: sub.Approx, ErrBound: sub.ErrBound})
			}
		}
	}
	return causes, nil
}

// AssignCause returns the index of the first cause (in rank order)
// matching the attributes, or -1 when none matches ("clean").
func AssignCause(causes []Cause, attrs map[string]string) int {
	for i, c := range causes {
		if c.Matches(attrs) {
			return i
		}
	}
	return -1
}

// CauseLabel returns the cause's key for clustering-metric purposes, or
// "clean" for -1.
func CauseLabel(causes []Cause, idx int) string {
	if idx < 0 {
		return "clean"
	}
	return causes[idx].Key()
}

func toCauses(results []fim.Result) []Cause {
	causes := make([]Cause, len(results))
	for i, r := range results {
		causes[i] = Cause{Items: r.Items, Metrics: r.Metrics, Approx: r.Approx, ErrBound: r.ErrBound}
	}
	return causes
}
