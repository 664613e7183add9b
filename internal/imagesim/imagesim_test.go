package imagesim

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"nazar/internal/tensor"
)

func TestWorldDeterminism(t *testing.T) {
	a := NewWorld(DefaultConfig(10, 42))
	b := NewWorld(DefaultConfig(10, 42))
	ra := tensor.NewRand(7, 7)
	rb := tensor.NewRand(7, 7)
	xa := a.Sample(3, ra)
	xb := b.Sample(3, rb)
	for i := range xa {
		if xa[i] != xb[i] {
			t.Fatal("same seed must reproduce identical samples")
		}
	}
	c := NewWorld(DefaultConfig(10, 43))
	xc := c.Sample(3, tensor.NewRand(7, 7))
	same := true
	for i := range xa {
		if xa[i] != xc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestSampleCentersOnPrototype(t *testing.T) {
	w := NewWorld(DefaultConfig(5, 1))
	rng := tensor.NewRand(2, 2)
	dim := w.Dim()
	mean := make([]float64, dim)
	const n = 2000
	for i := 0; i < n; i++ {
		x := w.Sample(2, rng)
		for j := range mean {
			mean[j] += x[j] / n
		}
	}
	// The empirical mean should be near the prototype: distance per
	// coordinate shrinks as 1/sqrt(n).
	proto := w.protos[2]
	var dist float64
	for j := range mean {
		d := mean[j] - proto[j]
		dist += d * d
	}
	if math.Sqrt(dist) > 0.15 {
		t.Fatalf("sample mean too far from prototype: %v", math.Sqrt(dist))
	}
}

func TestClassSigmaSpread(t *testing.T) {
	cfg := DefaultConfig(40, 9)
	w := NewWorld(cfg)
	lo, hi := math.Inf(1), math.Inf(-1)
	for c := 0; c < w.Classes(); c++ {
		s := w.ClassSigma(c)
		if s < cfg.NoiseMin || s > cfg.NoiseMax {
			t.Fatalf("sigma %v out of [%v,%v]", s, cfg.NoiseMin, cfg.NoiseMax)
		}
		lo, hi = math.Min(lo, s), math.Max(hi, s)
	}
	if hi-lo < 0.2 {
		t.Fatalf("sigma spread too small: [%v,%v]", lo, hi)
	}
}

func TestSixteenCorruptions(t *testing.T) {
	if len(AllCorruptions) != 16 {
		t.Fatalf("paper uses 16 corruption types, have %d", len(AllCorruptions))
	}
	seen := map[Corruption]bool{}
	for _, c := range AllCorruptions {
		if seen[c] {
			t.Fatalf("duplicate corruption %q", c)
		}
		seen[c] = true
		if _, ok := profiles[c]; !ok {
			t.Fatalf("no profile for %q", c)
		}
	}
	for _, wc := range []Corruption{Rain, Snow, Fog} {
		if !seen[wc] {
			t.Fatalf("weather corruption %q not in the 16", wc)
		}
	}
}

func TestCorruptSeverityZeroIsIdentity(t *testing.T) {
	w := NewWorld(DefaultConfig(5, 3))
	rng := tensor.NewRand(1, 1)
	x := w.Sample(0, rng)
	y := w.Corrupt(x, Fog, 0, rng)
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("severity 0 must be identity")
		}
	}
	// And must not alias the input.
	y[0] += 1
	if x[0] == y[0] {
		t.Fatal("Corrupt must not alias its input")
	}
}

func TestCorruptionDistortionGrowsWithSeverity(t *testing.T) {
	w := NewWorld(DefaultConfig(5, 4))
	rng := tensor.NewRand(5, 5)
	for _, c := range AllCorruptions {
		var prev float64
		for s := 1; s <= MaxSeverity; s++ {
			// Average distortion over several draws to smooth noise.
			var dist float64
			const reps = 30
			for r := 0; r < reps; r++ {
				x := w.Sample(r%5, rng)
				y := w.Corrupt(x, c, s, rng)
				var d float64
				for i := range x {
					dd := y[i] - x[i]
					d += dd * dd
				}
				dist += math.Sqrt(d) / reps
			}
			if s > 1 && dist <= prev*0.9 {
				t.Fatalf("%s: distortion not growing: sev %d %v <= sev %d %v", c, s, dist, s-1, prev)
			}
			prev = dist
		}
	}
}

func TestCorruptBatchMatchesRowwise(t *testing.T) {
	w := NewWorld(DefaultConfig(4, 6))
	classes := []int{0, 1, 2, 3}
	x := sampleBatch(w, classes, tensor.NewRand(6, 6))
	// Noise makes the two paths differ draw-by-draw; use a noiseless
	// deterministic check via severity on a zero-noise family instead:
	// just verify shape and that severity-0 batch equals input.
	y := w.CorruptBatch(x, Contrast, 0, tensor.NewRand(1, 1))
	if !y.SameShape(x) {
		t.Fatal("shape mismatch")
	}
	for i := range x.Data {
		if x.Data[i] != y.Data[i] {
			t.Fatal("severity-0 batch should copy input")
		}
	}
}

func TestWeatherShiftDominatesNoiseShift(t *testing.T) {
	// Weather corruptions must be dominated by the recoverable affine
	// component; noise corruptions by the stochastic one. Compare the
	// deterministic displacement (same input, noise from fixed seed
	// averaged out) of fog vs gaussian noise.
	w := NewWorld(DefaultConfig(5, 8))
	x := w.Sample(1, tensor.NewRand(9, 9))
	mean := func(c Corruption) []float64 {
		acc := make([]float64, len(x))
		const reps = 200
		rng := tensor.NewRand(10, 10)
		for r := 0; r < reps; r++ {
			y := w.Corrupt(x, c, DefaultSeverity, rng)
			for i := range acc {
				acc[i] += (y[i] - x[i]) / reps
			}
		}
		return acc
	}
	fogShift := tensor.Norm2(mean(Fog))
	noiseShift := tensor.Norm2(mean(GaussianNoise))
	if fogShift < 2*noiseShift {
		t.Fatalf("fog deterministic shift %v should dominate gaussian noise %v", fogShift, noiseShift)
	}
}

func TestRealRainDiffersFromSyntheticRain(t *testing.T) {
	w := NewWorld(DefaultConfig(5, 11))
	x := w.Sample(0, tensor.NewRand(12, 12))
	rng := tensor.NewRand(13, 13)
	syn := w.Corrupt(x, Rain, 2, rng)
	real := w.RealRain(x, rng)
	var d float64
	for i := range syn {
		dd := real[i] - syn[i]
		d += dd * dd
	}
	if math.Sqrt(d) < 0.5 {
		t.Fatalf("real rain should diverge from synthetic rain, dist=%v", math.Sqrt(d))
	}
}

func TestAugmentIsSmall(t *testing.T) {
	w := NewWorld(DefaultConfig(5, 14))
	rng := tensor.NewRand(15, 15)
	x := w.Sample(0, rng)
	a := w.Augment(x, rng)
	var d float64
	for i := range x {
		dd := a[i] - x[i]
		d += dd * dd
	}
	dist := math.Sqrt(d)
	if dist == 0 {
		t.Fatal("augmentation should perturb")
	}
	if dist > tensor.Norm2(x) {
		t.Fatalf("augmentation too large: %v", dist)
	}
}

// Property: corruption never changes dimensionality and is finite.
func TestQuickCorruptWellFormed(t *testing.T) {
	w := NewWorld(DefaultConfig(6, 21))
	f := func(seed uint64, sevRaw uint8, classRaw uint8, corrRaw uint8) bool {
		rng := tensor.NewRand(seed, 1)
		class := int(classRaw) % w.Classes()
		sev := int(sevRaw) % (MaxSeverity + 1)
		c := AllCorruptions[int(corrRaw)%len(AllCorruptions)]
		x := w.Sample(class, rng)
		y := w.Corrupt(x, c, sev, rng)
		if len(y) != len(x) {
			return false
		}
		for _, v := range y {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptUnknownPanics(t *testing.T) {
	w := NewWorld(DefaultConfig(5, 30))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Corrupt(make([]float64, w.Dim()), Corruption("bogus"), 3, tensor.NewRand(1, 1))
}

func TestDeviceFaultDeterministicPerDevice(t *testing.T) {
	w := NewWorld(DefaultConfig(5, 41))
	x := w.Sample(1, tensor.NewRand(42, 1))
	// Same device, noiseless comparison: average over draws to cancel
	// the stochastic component.
	mean := func(dev string) []float64 {
		acc := make([]float64, len(x))
		rng := tensor.NewRand(43, 1)
		const reps = 200
		for r := 0; r < reps; r++ {
			y := w.DeviceFault(x, dev, DefaultSeverity, rng)
			for i := range acc {
				acc[i] += y[i] / reps
			}
		}
		return acc
	}
	a1, a2 := mean("android_7"), mean("android_7")
	var dSame float64
	for i := range a1 {
		d := a1[i] - a2[i]
		dSame += d * d
	}
	b := mean("android_8")
	var dOther float64
	for i := range a1 {
		d := a1[i] - b[i]
		dOther += d * d
	}
	if math.Sqrt(dOther) < 10*math.Sqrt(dSame)+0.1 {
		t.Fatalf("device faults should differ across devices: same=%v other=%v",
			math.Sqrt(dSame), math.Sqrt(dOther))
	}
}

func TestDeviceFaultSeverityZeroIdentity(t *testing.T) {
	w := NewWorld(DefaultConfig(5, 44))
	rng := tensor.NewRand(45, 1)
	x := w.Sample(0, rng)
	y := w.DeviceFault(x, "dev", 0, rng)
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("severity 0 must be identity")
		}
	}
}

// sampleBatch draws n clean images of the given classes into a matrix.
func sampleBatch(w *World, classes []int, rng *rand.Rand) *tensor.Matrix {
	m := tensor.New(len(classes), w.cfg.Dim)
	for i, c := range classes {
		copy(m.Row(i), w.Sample(c, rng))
	}
	return m
}
