package detect

import (
	"nazar/internal/metrics"
)

// EvalScores computes the binary-detection confusion of a score threshold
// over clean (negative) and drifted (positive) confidence scores: an
// example is flagged as drift when its score is below the threshold.
func EvalScores(cleanScores, driftScores []float64, threshold float64) metrics.Confusion {
	var c metrics.Confusion
	for _, s := range cleanScores {
		c.Observe(s < threshold, false)
	}
	for _, s := range driftScores {
		c.Observe(s < threshold, true)
	}
	return c
}

// ThresholdSweep evaluates F1 at each threshold (Fig. 5a's sweep).
type SweepPoint struct {
	Threshold float64
	F1        float64
	Precision float64
	Recall    float64
}

// Sweep evaluates the given thresholds over clean and drifted scores.
func Sweep(cleanScores, driftScores, thresholds []float64) []SweepPoint {
	out := make([]SweepPoint, 0, len(thresholds))
	for _, t := range thresholds {
		c := EvalScores(cleanScores, driftScores, t)
		out = append(out, SweepPoint{Threshold: t, F1: c.F1(), Precision: c.Precision(), Recall: c.Recall()})
	}
	return out
}

// BestF1 returns the sweep point with the highest F1 (first on ties).
func BestF1(points []SweepPoint) SweepPoint {
	best := points[0]
	for _, p := range points[1:] {
		if p.F1 > best.F1 {
			best = p
		}
	}
	return best
}

// KSBatchF1 evaluates the KS-test detector's F1 at a given batch size the
// way §3.2.2 does: clean and drifted scores are split into batches of
// size batch, each batch gets one boolean verdict, and the verdict is
// assigned to every member of the batch.
func KSBatchF1(ks *KSTest, cleanScores, driftScores []float64, batch int) float64 {
	var c metrics.Confusion
	observe := func(scores []float64, actual bool) {
		for s := 0; s+batch <= len(scores); s += batch {
			verdict := ks.DetectBatch(scores[s : s+batch])
			for i := 0; i < batch; i++ {
				c.Observe(verdict, actual)
			}
		}
	}
	observe(cleanScores, false)
	observe(driftScores, true)
	return c.F1()
}

// DetectionRate returns the fraction of scores below the threshold — the
// per-drift-type detection rate of Fig. 6.
func DetectionRate(scores []float64, threshold float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	n := 0
	for _, s := range scores {
		if s < threshold {
			n++
		}
	}
	return float64(n) / float64(len(scores))
}
