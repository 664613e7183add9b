package detect

import (
	"fmt"
	"math"
	"sort"
)

// KSTest is the batched statistical detector of §3.2: it compares the
// empirical CDF of a batch of confidence scores against a reference CDF
// built from clean (in-distribution) scores, and flags drift when the
// two-sample Kolmogorov–Smirnov statistic exceeds the critical value at
// significance Alpha.
type KSTest struct {
	// Reference is the sorted clean-score sample.
	Reference []float64
	// Alpha is the test significance level (default 0.05).
	Alpha float64
}

// NewKSTest builds a KS detector from clean calibration scores.
func NewKSTest(cleanScores []float64, alpha float64) (*KSTest, error) {
	if len(cleanScores) == 0 {
		return nil, fmt.Errorf("detect: KS test needs a non-empty reference sample")
	}
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.05
	}
	ref := append([]float64(nil), cleanScores...)
	sort.Float64s(ref)
	return &KSTest{Reference: ref, Alpha: alpha}, nil
}

// Statistic returns the two-sample KS statistic between the batch and the
// reference: the maximum absolute difference of the empirical CDFs.
func (k *KSTest) Statistic(batch []float64) float64 {
	b := append([]float64(nil), batch...)
	sort.Float64s(b)
	var d float64
	i, j := 0, 0
	n, m := len(k.Reference), len(b)
	for i < n && j < m {
		if k.Reference[i] <= b[j] {
			i++
		} else {
			j++
		}
		diff := math.Abs(float64(i)/float64(n) - float64(j)/float64(m))
		if diff > d {
			d = diff
		}
	}
	return d
}

// CriticalValue returns the rejection threshold for a batch of size m:
// c(α)·sqrt((n+m)/(n·m)) with c(α) = sqrt(−ln(α/2)/2).
func (k *KSTest) CriticalValue(m int) float64 {
	if m <= 0 {
		return math.Inf(1)
	}
	n := float64(len(k.Reference))
	c := math.Sqrt(-math.Log(k.Alpha/2) / 2)
	return c * math.Sqrt((n+float64(m))/(n*float64(m)))
}

// DetectBatch reports drift for a whole batch of scores (the paper
// assigns the boolean to every member of the batch).
func (k *KSTest) DetectBatch(batch []float64) bool {
	if len(batch) == 0 {
		return false
	}
	return k.Statistic(batch) > k.CriticalValue(len(batch))
}
