package imagesim

import (
	"fmt"
	"math/rand/v2"

	"nazar/internal/tensor"
)

// Corruption identifies one of the 16 drift operators (the ImageNet-C
// taxonomy used by the paper, plus rain for the weather set).
type Corruption string

// The 16 corruption types. Snow, Rain and Fog are the weather drifts the
// end-to-end workloads apply from historical weather.
const (
	GaussianNoise Corruption = "gaussian_noise"
	ShotNoise     Corruption = "shot_noise"
	ImpulseNoise  Corruption = "impulse_noise"
	DefocusBlur   Corruption = "defocus_blur"
	GlassBlur     Corruption = "glass_blur"
	MotionBlur    Corruption = "motion_blur"
	ZoomBlur      Corruption = "zoom_blur"
	Snow          Corruption = "snow"
	Frost         Corruption = "frost"
	Fog           Corruption = "fog"
	Rain          Corruption = "rain"
	Brightness    Corruption = "brightness"
	Contrast      Corruption = "contrast"
	Elastic       Corruption = "elastic_transform"
	Pixelate      Corruption = "pixelate"
	JPEG          Corruption = "jpeg_compression"
)

// AllCorruptions lists every drift operator in a stable order.
var AllCorruptions = []Corruption{
	GaussianNoise, ShotNoise, ImpulseNoise,
	DefocusBlur, GlassBlur, MotionBlur, ZoomBlur,
	Snow, Frost, Fog, Rain,
	Brightness, Contrast, Elastic, Pixelate, JPEG,
}

// MaxSeverity is the largest severity level (the paper uses 0–5 with a
// default of 3; 0 means no corruption).
const MaxSeverity = 5

// DefaultSeverity is the paper's default corruption severity.
const DefaultSeverity = 3

// profile describes how strongly each distortion component applies for a
// corruption family, at severity 3 (components scale linearly with
// severity/3).
type profile struct {
	shift float64 // translation along a corruption-specific direction
	scale float64 // per-feature multiplicative distortion amplitude
	blur  float64 // mixing weight toward a locally smoothed copy
	noise float64 // additive white noise sigma
	atten float64 // uniform shrink of the signal (contrast/visibility loss)
}

// profiles encodes the character of each family: weather and photometric
// drifts are dominated by the affine (BN-recoverable) components; noise
// drifts by the stochastic (irrecoverable) component; blur drifts sit in
// between. This mirrors why TENT recovers some ImageNet-C corruptions far
// better than others.
var profiles = map[Corruption]profile{
	GaussianNoise: {shift: 0.10, scale: 0.05, blur: 0.00, noise: 0.55, atten: 0.27},
	ShotNoise:     {shift: 0.10, scale: 0.10, blur: 0.00, noise: 0.50, atten: 0.27},
	ImpulseNoise:  {shift: 0.15, scale: 0.05, blur: 0.00, noise: 0.60, atten: 0.24},
	DefocusBlur:   {shift: 0.15, scale: 0.15, blur: 0.55, noise: 0.10, atten: 0.37},
	GlassBlur:     {shift: 0.10, scale: 0.10, blur: 0.60, noise: 0.20, atten: 0.34},
	MotionBlur:    {shift: 0.20, scale: 0.10, blur: 0.50, noise: 0.10, atten: 0.37},
	ZoomBlur:      {shift: 0.15, scale: 0.20, blur: 0.45, noise: 0.10, atten: 0.34},
	Snow:          {shift: 0.95, scale: 0.30, blur: 0.15, noise: 0.18, atten: 0.46},
	Frost:         {shift: 0.75, scale: 0.25, blur: 0.10, noise: 0.15, atten: 0.40},
	Fog:           {shift: 0.95, scale: 0.35, blur: 0.25, noise: 0.08, atten: 0.50},
	Rain:          {shift: 0.85, scale: 0.25, blur: 0.20, noise: 0.20, atten: 0.46},
	Brightness:    {shift: 0.60, scale: 0.40, blur: 0.00, noise: 0.05, atten: 0.27},
	Contrast:      {shift: 0.30, scale: 0.70, blur: 0.00, noise: 0.05, atten: 0.57},
	Elastic:       {shift: 0.25, scale: 0.25, blur: 0.35, noise: 0.25, atten: 0.30},
	Pixelate:      {shift: 0.15, scale: 0.20, blur: 0.50, noise: 0.15, atten: 0.32},
	JPEG:          {shift: 0.25, scale: 0.30, blur: 0.30, noise: 0.20, atten: 0.30},
}

// operator is the realized distortion of one corruption in one world:
// fixed random directions scaled by severity at application time.
type operator struct {
	prof     profile
	shiftDir []float64 // unit vector
	scaleVec []float64 // in [-1, 1]
}

func newOperator(c Corruption, dim int, worldSeed uint64) *operator {
	prof, ok := profiles[c]
	if !ok {
		panic(fmt.Sprintf("imagesim: unknown corruption %q", c))
	}
	rng := tensor.NewRand(hashSeed(worldSeed, "corruption/"+string(c)), 0xC0FFEE)
	op := &operator{prof: prof}
	op.shiftDir = tensor.RandUnitVector(rng, dim)
	op.scaleVec = make([]float64, dim)
	for i := range op.scaleVec {
		op.scaleVec[i] = rng.Float64()*2 - 1
	}
	return op
}

// apply distorts x in place-free fashion at the given severity.
func (op *operator) apply(x []float64, severity int, rng *rand.Rand) []float64 {
	out := make([]float64, len(x))
	if severity <= 0 {
		copy(out, x)
		return out
	}
	if severity > MaxSeverity {
		severity = MaxSeverity
	}
	s := float64(severity) / float64(DefaultSeverity)
	p := op.prof

	// Uniform attenuation (visibility/contrast loss) followed by the
	// per-feature multiplicative distortion and shift.
	shrink := 1 - s*p.atten
	if shrink < 0.05 {
		shrink = 0.05
	}
	for i := range x {
		scale := shrink * (1 + s*p.scale*op.scaleVec[i])
		out[i] = scale*x[i] + s*p.shift*op.shiftDir[i]*3.0
	}
	// Local smoothing ("blur"): mix each feature toward the average of
	// its neighbourhood, emulating the loss of high-frequency content.
	if p.blur > 0 {
		mix := s * p.blur
		if mix > 0.95 {
			mix = 0.95
		}
		sm := make([]float64, len(out))
		n := len(out)
		for i := range out {
			lo, hi := i-2, i+2
			if lo < 0 {
				lo = 0
			}
			if hi >= n {
				hi = n - 1
			}
			var sum float64
			for j := lo; j <= hi; j++ {
				sum += out[j]
			}
			sm[i] = sum / float64(hi-lo+1)
		}
		for i := range out {
			out[i] = (1-mix)*out[i] + mix*sm[i]
		}
	}
	// Additive noise (the irrecoverable component).
	if p.noise > 0 {
		sigma := s * p.noise
		for i := range out {
			out[i] += sigma * rng.NormFloat64()
		}
	}
	return out
}

// Corrupt applies the named corruption to x at the given severity and
// returns a new vector. Severity 0 returns a copy of x.
func (w *World) Corrupt(x []float64, c Corruption, severity int, rng *rand.Rand) []float64 {
	op, ok := w.ops[c]
	if !ok {
		panic(fmt.Sprintf("imagesim: unknown corruption %q", c))
	}
	return op.apply(x, severity, rng)
}

// CorruptBatch applies the corruption row-wise to a batch.
func (w *World) CorruptBatch(x *tensor.Matrix, c Corruption, severity int, rng *rand.Rand) *tensor.Matrix {
	out := tensor.New(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		copy(out.Row(i), w.Corrupt(x.Row(i), c, severity, rng))
	}
	return out
}

// DeviceFault applies a persistent, device-specific sensor defect to x —
// the paper's second class of drift cause ("hardware issues in specific
// devices, e.g. low-quality cameras" / the §3.3 lens-manufacturer
// example). Each device ID gets its own fixed defect (derived from the
// world seed), shaped like a mild lens problem: smoothing, a color-cast
// shift and gain error, plus sensor noise. Severity follows the usual
// 0–5 scale.
func (w *World) DeviceFault(x []float64, deviceID string, severity int, rng *rand.Rand) []float64 {
	op := w.deviceFaultOp(deviceID)
	return op.apply(x, severity, rng)
}

// deviceFaultOp derives (and caches) the defect operator of one device.
func (w *World) deviceFaultOp(deviceID string) *operator {
	w.faultMu.Lock()
	defer w.faultMu.Unlock()
	if op, ok := w.faults[deviceID]; ok {
		return op
	}
	prof := profile{shift: 0.55, scale: 0.30, blur: 0.35, noise: 0.20, atten: 0.33}
	rng := tensor.NewRand(hashSeed(w.cfg.Seed, "fault/"+deviceID), 0xFA117)
	op := &operator{prof: prof}
	op.shiftDir = tensor.RandUnitVector(rng, w.cfg.Dim)
	op.scaleVec = make([]float64, w.cfg.Dim)
	for i := range op.scaleVec {
		op.scaleVec[i] = rng.Float64()*2 - 1
	}
	w.faults[deviceID] = op
	return op
}

// RealRain emulates drift from a *real* rainy-image dataset (the paper's
// RID sub-dataset): it shares character with the synthetic Rain operator
// but adds an unseen camera shift and extra noise, so detectors trained
// against synthetic drift see it as noisier (F1 drops, as in §5.3).
func (w *World) RealRain(x []float64, rng *rand.Rand) []float64 {
	out := w.Corrupt(x, Rain, 2, rng)
	camera := w.ops[Frost].shiftDir // reuse as an "unseen camera" direction
	for i := range out {
		out[i] += 0.9*camera[i] + 0.25*rng.NormFloat64()
	}
	return out
}
