// Package imagesim synthesizes the "images" that the reproduction's
// models classify: class-conditional feature vectors with per-class
// difficulty, plus the 16 parameterized corruption operators that stand in
// for the ImageNet-C drifts used by the paper.
//
// Drift detection and test-time adaptation never look at pixels — they
// operate on logits, softmax scores and batch-norm statistics. What the
// substrate must preserve is therefore (a) a clean distribution a model
// can learn to ~80 % accuracy with a realistic per-class spread, and
// (b) corruption operators that shift feature statistics in a way that
// degrades a clean-trained model and is partially recoverable by BN-only
// adaptation. The operators below are built exactly for that: each is a
// severity-scaled mixture of feature shift, per-feature scaling, smoothing
// and additive noise, with the mixture weights differing per corruption
// family (weather drifts are dominated by the recoverable affine part,
// noise drifts by the irrecoverable stochastic part).
package imagesim

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sync"

	"nazar/internal/tensor"
)

// DefaultDim is the default feature dimensionality of an image.
const DefaultDim = 64

// Config parameterizes a World.
type Config struct {
	Classes int
	Dim     int
	Seed    uint64
	// ProtoScale is the norm of each class prototype.
	ProtoScale float64
	// NoiseMin/NoiseMax bound the per-class within-class noise sigma;
	// the spread is what produces the paper's 39–98 % per-class
	// accuracy variation (Fig. 5b).
	NoiseMin, NoiseMax float64
}

// DefaultConfig returns a calibrated configuration: a ResNet-analogue
// trained on it reaches the ~72–84 % clean validation accuracy the paper
// reports for its two datasets.
func DefaultConfig(classes int, seed uint64) Config {
	return Config{
		Classes:    classes,
		Dim:        DefaultDim,
		Seed:       seed,
		ProtoScale: 2.0,
		NoiseMin:   0.30,
		NoiseMax:   0.85,
	}
}

// World is a fixed synthetic data universe: class prototypes, per-class
// difficulty and per-corruption operator parameters, all derived
// deterministically from the seed.
type World struct {
	cfg    Config
	protos [][]float64 // Classes × Dim
	sigma  []float64   // per-class noise
	ops    map[Corruption]*operator

	// faults caches per-device sensor-defect operators (lazily built).
	faultMu sync.Mutex
	faults  map[string]*operator
}

// NewWorld constructs the world for cfg.
func NewWorld(cfg Config) *World {
	if cfg.Classes <= 1 {
		panic(fmt.Sprintf("imagesim: need >= 2 classes, got %d", cfg.Classes))
	}
	if cfg.Dim <= 0 {
		cfg.Dim = DefaultDim
	}
	rng := tensor.NewRand(cfg.Seed, 0xA11CE)
	w := &World{cfg: cfg}
	w.protos = make([][]float64, cfg.Classes)
	w.sigma = make([]float64, cfg.Classes)
	for c := range w.protos {
		p := tensor.RandUnitVector(rng, cfg.Dim)
		for i := range p {
			p[i] *= cfg.ProtoScale
		}
		w.protos[c] = p
		w.sigma[c] = cfg.NoiseMin + (cfg.NoiseMax-cfg.NoiseMin)*rng.Float64()
	}
	w.ops = make(map[Corruption]*operator, len(AllCorruptions))
	for _, c := range AllCorruptions {
		w.ops[c] = newOperator(c, cfg.Dim, cfg.Seed)
	}
	w.faults = map[string]*operator{}
	return w
}

// Classes returns the number of classes.
func (w *World) Classes() int { return w.cfg.Classes }

// Dim returns the feature dimensionality.
func (w *World) Dim() int { return w.cfg.Dim }

// ClassSigma returns the within-class noise of class c (its difficulty).
func (w *World) ClassSigma(c int) float64 { return w.sigma[c] }

// Sample draws one clean image of class c.
func (w *World) Sample(c int, rng *rand.Rand) []float64 {
	x := make([]float64, w.cfg.Dim)
	p := w.protos[c]
	s := w.sigma[c]
	for i := range x {
		x[i] = p[i] + s*rng.NormFloat64()
	}
	return x
}

// Augment returns a lightly perturbed copy of x — the stand-in for
// MEMO's random augmentations (rotations/posterization in the paper).
func (w *World) Augment(x []float64, rng *rand.Rand) []float64 {
	out := make([]float64, len(x))
	scale := 1 + 0.08*(rng.Float64()*2-1)
	for i := range x {
		out[i] = scale*x[i] + 0.08*rng.NormFloat64()
	}
	return out
}

// hashSeed derives a stable sub-seed from the world seed and a label.
func hashSeed(seed uint64, label string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return h.Sum64()
}
