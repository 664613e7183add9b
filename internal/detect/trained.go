package detect

import (
	"math/rand/v2"

	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// OutlierExposure fine-tunes a copy of the model to be maximally
// uncertain (uniform softmax) on an auxiliary outlier dataset while
// preserving accuracy on clean data (Hendrycks et al.). Detection is then
// a plain MSP threshold on the exposed model. The need for the outlier
// dataset is exactly why Table 1 rules it out for Nazar: end users cannot
// supply "drift datasets".
type OutlierExposure struct {
	Exposed   *nn.Network
	Threshold float64
}

// OEConfig controls outlier-exposure fine-tuning.
type OEConfig struct {
	Epochs    int
	BatchSize int
	Lambda    float64 // weight of the uniformity loss on outliers
	LR        float64
	Rng       *rand.Rand
}

// NewOutlierExposure clones net and fine-tunes it on clean (x, labels)
// plus unlabeled outliers.
func NewOutlierExposure(net *nn.Network, x *tensor.Matrix, labels []int, outliers *tensor.Matrix, threshold float64, cfg OEConfig) *OutlierExposure {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 3
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Lambda <= 0 {
		cfg.Lambda = 0.5
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.01
	}
	if cfg.Rng == nil {
		cfg.Rng = tensor.NewRand(0x0E, 1)
	}
	exposed := net.Clone()
	opt := nn.NewSGD(cfg.LR, 0.9, 0)
	n := x.Rows
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		cfg.Rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for s := 0; s < n; s += cfg.BatchSize {
			e := min(s+cfg.BatchSize, n)
			bx := tensor.New(e-s, x.Cols)
			by := make([]int, e-s)
			for i := s; i < e; i++ {
				copy(bx.Row(i-s), x.Row(idx[i]))
				by[i-s] = labels[idx[i]]
			}
			exposed.ZeroGrads()
			logits := exposed.Forward(bx, nn.Train)
			_, dl := nn.CrossEntropy(logits, by)
			exposed.BackwardParams(dl)

			// Outlier batch: push toward the uniform distribution via
			// cross-entropy to uniform (gradient p − 1/C per row).
			ob := tensor.New(e-s, x.Cols)
			for i := range by {
				copy(ob.Row(i), outliers.Row(cfg.Rng.IntN(outliers.Rows)))
			}
			ologits := exposed.Forward(ob, nn.Train)
			dOut := tensor.New(ologits.Rows, ologits.Cols)
			c := float64(ologits.Cols)
			for i := 0; i < ologits.Rows; i++ {
				p := tensor.Softmax(ologits.Row(i))
				g := dOut.Row(i)
				for j := range p {
					g[j] = cfg.Lambda * (p[j] - 1/c) / float64(ologits.Rows)
				}
			}
			exposed.BackwardParams(dOut)
			opt.Step(exposed.Params())
		}
	}
	return &OutlierExposure{Exposed: exposed, Threshold: threshold}
}

// Score returns the exposed model's MSP on x.
func (o *OutlierExposure) Score(x []float64) float64 {
	return tensor.Max(tensor.Softmax(o.Exposed.LogitsOne(x)))
}

// Detect reports drift when the exposed model's confidence is low.
func (o *OutlierExposure) Detect(x []float64) bool { return o.Score(x) < o.Threshold }

// Name identifies the detector.
func (o *OutlierExposure) Name() string { return "outlier-exposure" }

// SelfSupervised is the SSL/CSI family: a *secondary* auxiliary model is
// trained to recognize which of K fixed transformations was applied to an
// input; on drifted data the auxiliary task gets harder and its
// confidence drops. The transforms are fixed sign-flip/permutation maps,
// the feature-space analogue of image rotations.
type SelfSupervised struct {
	Aux        *nn.Network
	Threshold  float64
	transforms [][]int // per-transform signed permutation: index -> ±(j+1)
}

// SSLConfig controls auxiliary-model training.
type SSLConfig struct {
	Transforms int
	Epochs     int
	BatchSize  int
	Rng        *rand.Rand
}

// NewSelfSupervised trains the auxiliary transform classifier on clean
// inputs x.
func NewSelfSupervised(x *tensor.Matrix, threshold float64, cfg SSLConfig) *SelfSupervised {
	if cfg.Transforms <= 1 {
		cfg.Transforms = 4
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 6
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Rng == nil {
		cfg.Rng = tensor.NewRand(0x551, 1)
	}
	dim := x.Cols
	s := &SelfSupervised{Threshold: threshold}
	// Transform 0 is identity; the rest are random signed permutations.
	for t := 0; t < cfg.Transforms; t++ {
		perm := make([]int, dim)
		for j := range perm {
			perm[j] = j + 1
		}
		if t > 0 {
			cfg.Rng.Shuffle(dim, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			for j := range perm {
				if cfg.Rng.Float64() < 0.5 {
					perm[j] = -perm[j]
				}
			}
		}
		s.transforms = append(s.transforms, perm)
	}
	s.Aux = nn.NewClassifier(nn.ArchResNet18, dim, cfg.Transforms, cfg.Rng)

	// Build the auxiliary training set: each input under each transform.
	n := x.Rows * cfg.Transforms
	ax := tensor.New(n, dim)
	ay := make([]int, n)
	k := 0
	for i := 0; i < x.Rows; i++ {
		for t := 0; t < cfg.Transforms; t++ {
			copy(ax.Row(k), s.apply(x.Row(i), t))
			ay[k] = t
			k++
		}
	}
	nn.Fit(s.Aux, ax, ay, nn.TrainConfig{Epochs: cfg.Epochs, BatchSize: cfg.BatchSize, Rng: cfg.Rng})
	return s
}

// apply runs transform t on x.
func (s *SelfSupervised) apply(x []float64, t int) []float64 {
	out := make([]float64, len(x))
	for j, p := range s.transforms[t] {
		if p > 0 {
			out[j] = x[p-1]
		} else {
			out[j] = -x[-p-1]
		}
	}
	return out
}

// Score is the mean auxiliary confidence in the *correct* transform over
// all transforms of x; it drops when the input distribution drifts.
func (s *SelfSupervised) Score(x []float64) float64 {
	var total float64
	for t := range s.transforms {
		logits := s.Aux.LogitsOne(s.apply(x, t))
		total += tensor.Softmax(logits)[t]
	}
	return total / float64(len(s.transforms))
}

// Detect reports drift when the auxiliary task confidence is low.
func (s *SelfSupervised) Detect(x []float64) bool { return s.Score(x) < s.Threshold }

// Name identifies the detector.
func (s *SelfSupervised) Name() string { return "ssl" }
