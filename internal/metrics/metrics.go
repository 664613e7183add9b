// Package metrics implements the evaluation metrics used throughout the
// paper's experiments: binary-detection F1 (Eq. 1), the Fowlkes–Mallows
// clustering score (Eq. 4) and small statistical helpers.
package metrics

import (
	"math"
	"sort"
)

// Confusion accumulates binary classification outcomes.
type Confusion struct {
	TP, FP, TN, FN int
}

// Observe records one (predicted, actual) outcome.
func (c *Confusion) Observe(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Precision returns TP/(TP+FP), or 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns 2·TP/(2·TP+FP+FN) — Eq. 1 of the paper.
func (c Confusion) F1() float64 {
	denom := 2*c.TP + c.FP + c.FN
	if denom == 0 {
		return 0
	}
	return 2 * float64(c.TP) / float64(denom)
}

// FowlkesMallows computes the FMS (Eq. 4) between two clusterings given
// as per-item labels. Labels may be any comparable strings; items at the
// same index must refer to the same underlying data point.
//
// FMS = TP/sqrt((TP+FP)(TP+FN)) over pairs of points, where TP counts
// pairs co-clustered in both labelings. Computed from the contingency
// table in O(n + cells) rather than over all O(n²) pairs.
func FowlkesMallows(truth, pred []string) float64 {
	if len(truth) != len(pred) {
		panic("metrics: FowlkesMallows length mismatch")
	}
	n := len(truth)
	if n < 2 {
		return 1
	}
	cont := map[[2]string]int{}
	truthSizes := map[string]int{}
	predSizes := map[string]int{}
	for i := 0; i < n; i++ {
		cont[[2]string{truth[i], pred[i]}]++
		truthSizes[truth[i]]++
		predSizes[pred[i]]++
	}
	pairs := func(k int) float64 { return float64(k) * float64(k-1) / 2 }
	var tp, truthPairs, predPairs float64
	for _, k := range cont {
		tp += pairs(k)
	}
	for _, k := range truthSizes {
		truthPairs += pairs(k)
	}
	for _, k := range predSizes {
		predPairs += pairs(k)
	}
	// truthPairs = TP+FN, predPairs = TP+FP.
	if truthPairs == 0 || predPairs == 0 {
		// One of the clusterings puts every item alone; define FMS as 1
		// only if both do (no co-clustered pairs to disagree on).
		if truthPairs == 0 && predPairs == 0 {
			return 1
		}
		return 0
	}
	return tp / math.Sqrt(truthPairs*predPairs)
}

// AUROC computes the area under the ROC curve for a scored binary
// detection problem where *lower* scores indicate the positive (drifted)
// class — the convention of confidence scorers. It equals the probability
// that a random positive scores below a random negative, with ties
// counted half (the Mann–Whitney U statistic), computed in O(n log n).
func AUROC(negativeScores, positiveScores []float64) float64 {
	n, p := len(negativeScores), len(positiveScores)
	if n == 0 || p == 0 {
		return 0.5
	}
	type scored struct {
		v   float64
		pos bool
	}
	all := make([]scored, 0, n+p)
	for _, v := range negativeScores {
		all = append(all, scored{v, false})
	}
	for _, v := range positiveScores {
		all = append(all, scored{v, true})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Walk in ascending order; each positive "beats" (scores below) all
	// negatives that come strictly after it, and ties count half.
	var wins float64
	negSeen := 0
	i := 0
	for i < len(all) {
		j := i
		posInTie, negInTie := 0, 0
		for j < len(all) && all[j].v == all[i].v {
			if all[j].pos {
				posInTie++
			} else {
				negInTie++
			}
			j++
		}
		// Positives in this tie group beat all negatives after the
		// group, plus half of the tied negatives.
		negAfter := n - negSeen - negInTie
		wins += float64(posInTie) * (float64(negAfter) + float64(negInTie)/2)
		negSeen += negInTie
		i = j
	}
	return wins / float64(n*p)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// RunningAccuracy tracks cumulative accuracy over a stream.
type RunningAccuracy struct {
	Correct, Total int
}

// Observe records one prediction outcome.
func (r *RunningAccuracy) Observe(correct bool) {
	r.Total++
	if correct {
		r.Correct++
	}
}

// Value returns the cumulative accuracy (0 when empty).
func (r RunningAccuracy) Value() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Total)
}
