// Package detect implements the data-drift detectors the paper evaluates
// (Table 1): the confidence-threshold family Nazar ships on devices (MSP,
// entropy, energy, max-logit), the KS-test batch detector, and the
// heavier-weight alternatives it rules out — Odin, Generalized Odin,
// Mahalanobis distance, Outlier Exposure and SSL/CSI-style auxiliary
// models — together with the capability matrix that explains why the
// simple threshold wins for on-device use.
package detect

import (
	"fmt"

	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// DefaultMSPThreshold is the paper's default detection threshold (§3.2.2).
const DefaultMSPThreshold = 0.9

// Scorer maps a logit vector to a confidence score. Low scores indicate
// likely drift; each scorer documents its range.
type Scorer interface {
	Name() string
	Score(logits []float64) float64
}

// MSP scores by maximum softmax probability, in (0, 1]. This is Nazar's
// default: normalized, and free given the inference output.
type MSP struct{}

func (MSP) Name() string { return "msp" }

func (MSP) Score(logits []float64) float64 {
	return tensor.Max(tensor.Softmax(logits))
}

// NegEntropy scores by the negated Shannon entropy of the softmax, in
// [-log C, 0].
type NegEntropy struct{}

func (NegEntropy) Name() string { return "neg-entropy" }

func (NegEntropy) Score(logits []float64) float64 {
	return -nn.EntropyOf(tensor.Softmax(logits))
}

// Energy scores by the (negated) free energy −(−logΣe^z) = logsumexp, as
// in energy-based OOD detection; higher = more confident.
type Energy struct{}

func (Energy) Name() string { return "energy" }

func (Energy) Score(logits []float64) float64 { return tensor.LogSumExp(logits) }

// MaxLogit scores by the raw maximum logit.
type MaxLogit struct{}

func (MaxLogit) Name() string { return "max-logit" }

func (MaxLogit) Score(logits []float64) float64 { return tensor.Max(logits) }

// Detector decides whether a single inference output indicates drift.
type Detector interface {
	Name() string
	Detect(logits []float64) bool
}

// Threshold flags drift when the scorer's confidence falls below T.
// With Scorer = MSP and T = 0.9 this is exactly Nazar's on-device
// detector.
type Threshold struct {
	Scorer Scorer
	T      float64
}

// NewMSPThreshold returns the paper-default detector: MSP < 0.9.
func NewMSPThreshold() Threshold { return Threshold{Scorer: MSP{}, T: DefaultMSPThreshold} }

func (t Threshold) Name() string { return fmt.Sprintf("threshold(%s<%.3g)", t.Scorer.Name(), t.T) }

func (t Threshold) Detect(logits []float64) bool { return t.Scorer.Score(logits) < t.T }

// Capabilities encodes the four requirements rows of Table 1. True means
// the method has the listed cost.
type Capabilities struct {
	NeedsSecondaryDataset bool
	NeedsSecondaryModel   bool
	NeedsBackprop         bool
	NeedsBatching         bool
}

// MethodInfo is one column of Table 1.
type MethodInfo struct {
	Name string
	Caps Capabilities
}

// Table1 reproduces the paper's detector comparison matrix.
func Table1() []MethodInfo {
	return []MethodInfo{
		{"Threshold", Capabilities{}},
		{"KS-test", Capabilities{NeedsBatching: true}},
		{"OE", Capabilities{NeedsSecondaryDataset: true}},
		{"Odin", Capabilities{NeedsSecondaryDataset: true, NeedsBackprop: true}},
		{"MD", Capabilities{NeedsSecondaryDataset: true}},
		{"SSL", Capabilities{NeedsSecondaryModel: true}},
		{"CSI", Capabilities{NeedsSecondaryModel: true}},
		{"GOdin", Capabilities{NeedsBackprop: true}},
	}
}

// ScoreBatch applies the scorer to every row of a logit matrix.
func ScoreBatch(s Scorer, logits *tensor.Matrix) []float64 {
	out := make([]float64, logits.Rows)
	for i := range out {
		out[i] = s.Score(logits.Row(i))
	}
	return out
}

// softmaxWithTemperatureInPlace overwrites v with softmax(v/T).
func softmaxWithTemperatureInPlace(v []float64, temp float64) []float64 {
	for i, x := range v {
		v[i] = x / temp
	}
	tensor.SoftmaxInPlace(v)
	return v
}

// sign returns -1, 0 or 1.
func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}
