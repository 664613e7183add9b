package experiments

import (
	"fmt"
	"sort"
)

// Runner executes one experiment and returns its printable tables.
type Runner func(o Options) ([]*Table, error)

// one adapts a single-table experiment to a Runner.
func one[T any](f func(Options) (T, error), tables func(T) []*Table) Runner {
	return func(o Options) ([]*Table, error) {
		res, err := f(o)
		if err != nil {
			return nil, err
		}
		return tables(res), nil
	}
}

// Registry maps experiment IDs (the paper's table/figure numbers) to
// their regenerators.
var Registry = map[string]Runner{
	"table1":       one(Table1, func(r *Table1Result) []*Table { return []*Table{r.Matrix, r.Live} }),
	"fig2":         one(Fig2, func(r *Fig2Result) []*Table { return []*Table{r.Table} }),
	"table1-auroc": one(DetectorAUROC, func(r *DetectorAUROCResult) []*Table { return []*Table{r.Table} }),
	"table3": func(o Options) ([]*Table, error) {
		r, err := Table3Example()
		if err != nil {
			return nil, err
		}
		return []*Table{r.Log, r.Mined, r.Final}, nil
	},
	"table4":     one(Table4, func(r *Table4Result) []*Table { return []*Table{r.Table} }),
	"crosscause": one(CrossCause, func(r *CrossCauseResult) []*Table { return []*Table{r.Table} }),
	"fig5a":      one(Fig5a, func(r *Fig5aResult) []*Table { return []*Table{r.Table} }),
	"fig5b":      one(Fig5b, func(r *Fig5bResult) []*Table { return []*Table{r.Table} }),
	"fig5c":      one(Fig5c, func(r *Fig5cResult) []*Table { return []*Table{r.Table} }),
	"realrain":   one(RealRain, func(r *RealRainResult) []*Table { return []*Table{r.Table} }),
	"table5":     one(Table5, func(r *Table5Result) []*Table { return []*Table{r.Table} }),
	"fig6":       one(Fig6, func(r *Fig6Result) []*Table { return []*Table{r.Table} }),
	"fig7":       one(Fig7, func(r *Fig7Result) []*Table { return []*Table{r.Table} }),
	"fig8": one(Fig8, func(r *Fig8Result) []*Table {
		return []*Table{r.TableA, r.TableB, r.TableC, r.TableD}
	}),
	"fig9ab":    one(Fig9ab, func(r *Fig9abResult) []*Table { return []*Table{r.Table} }),
	"fig9c":     one(Fig9c, func(r *Fig9cResult) []*Table { return []*Table{r.Table} }),
	"fig9d":     one(Fig9d, func(r *Fig9dResult) []*Table { return []*Table{r.Table} }),
	"runtime":   one(Runtime, func(r *RuntimeResult) []*Table { return []*Table{r.Table} }),
	"adaptfreq": one(AdaptFreq, func(r *AdaptFreqResult) []*Table { return []*Table{r.Table} }),
	"ablation-scores": one(AblationScores, func(r *AblationScoresResult) []*Table {
		return []*Table{r.Table}
	}),
	"ablation-ranking": one(AblationRanking, func(r *AblationRankingResult) []*Table {
		return []*Table{r.Table}
	}),
	"ablation-bnonly": one(AblationBNOnly, func(r *AblationBNOnlyResult) []*Table {
		return []*Table{r.Table}
	}),
	"ablation-poolcap": one(AblationPoolCapacity, func(r *AblationPoolCapacityResult) []*Table {
		return []*Table{r.Table}
	}),
	"ablation-threshold": one(AblationThreshold, func(r *AblationThresholdResult) []*Table {
		return []*Table{r.Table}
	}),
	"quantization": one(Quantization, func(r *QuantizationResult) []*Table { return []*Table{r.Table} }),
	"hardware":     one(HardwareFault, func(r *HardwareFaultResult) []*Table { return []*Table{r.Table} }),
}

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID.
func Run(id string, o Options) ([]*Table, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return r(o)
}
