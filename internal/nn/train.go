package nn

import (
	"math/rand/v2"

	"nazar/internal/tensor"
)

// TrainConfig controls the supervised training loop.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	Rng       *rand.Rand
}

// Fit trains the network with cross-entropy on (x, labels).
func Fit(net *Network, x *tensor.Matrix, labels []int, cfg TrainConfig) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = NewSGD(0.05, 0.9, 1e-4)
	}
	if cfg.Rng == nil {
		cfg.Rng = tensor.NewRand(1, 1)
	}
	n := x.Rows
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Batch and gradient buffers are reused across every step of the
	// run; only their shape changes (the final partial batch).
	var bx, dlogits tensor.Matrix
	by := make([]int, 0, cfg.BatchSize)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		cfg.Rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < n; start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, n)
			by = gatherInto(&bx, by[:0], x, labels, idx[start:end])
			logits := net.Forward(&bx, Train)
			_, grad := CrossEntropyInto(&dlogits, logits, by)
			net.BackwardParams(grad)
			cfg.Optimizer.Step(net.Params())
		}
	}
}

// gatherInto copies the selected rows/labels into the reused batch
// buffers, reshaping bx and appending the labels to by.
func gatherInto(bx *tensor.Matrix, by []int, x *tensor.Matrix, labels []int, sel []int) []int {
	bx.Reshape(len(sel), x.Cols)
	for i, r := range sel {
		copy(bx.Row(i), x.Row(r))
		by = append(by, labels[r])
	}
	return by
}

// PerClassAccuracy returns accuracy per class label over (x, labels) for
// classes 0..numClasses-1. Classes with no examples report NaN-free 0 and
// ok=false in the mask.
func PerClassAccuracy(net *Network, x *tensor.Matrix, labels []int, numClasses int) (acc []float64, present []bool) {
	correct := make([]int, numClasses)
	total := make([]int, numClasses)
	preds := net.Predict(x)
	for i, p := range preds {
		total[labels[i]]++
		if p == labels[i] {
			correct[labels[i]]++
		}
	}
	acc = make([]float64, numClasses)
	present = make([]bool, numClasses)
	for c := 0; c < numClasses; c++ {
		if total[c] > 0 {
			acc[c] = float64(correct[c]) / float64(total[c])
			present[c] = true
		}
	}
	return acc, present
}
