package adapt

import (
	"context"
	"math"
	"testing"

	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/tensor"
)

func TestDeltaRoundTripAccuracy(t *testing.T) {
	r := getRig(t)
	rng := tensor.NewRand(40, 40)
	foggy := r.world.CorruptBatch(r.trainX, imagesim.Fog, imagesim.DefaultSeverity, rng)
	adapted, err := AdaptContext(context.Background(), r.base, foggy, Config{Rng: rng, Epochs: 1, MinSteps: 15})
	if err != nil {
		t.Fatal(err)
	}
	ref := nn.CaptureBN(r.base)
	target := nn.CaptureBN(adapted)

	delta, err := DiffBN(ref, target)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := delta.Apply(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruction error is bounded by half a quantization step.
	for li := range target.Layers {
		scale := delta.Layers[li].GammaScale
		for j := range target.Layers[li].Gamma {
			diff := math.Abs(rebuilt.Layers[li].Gamma[j] - target.Layers[li].Gamma[j])
			if diff > scale*0.51+1e-15 {
				t.Fatalf("layer %d gamma %d: error %v > half-step %v", li, j, diff, scale/2)
			}
		}
	}
	// The reconstructed model must match the adapted model's accuracy.
	foggyTest := r.world.CorruptBatch(r.valX, imagesim.Fog, imagesim.DefaultSeverity, rng)
	exact := adapted.Accuracy(foggyTest, r.valY)
	reModel := r.base.Clone()
	if err := rebuilt.ApplyTo(reModel); err != nil {
		t.Fatal(err)
	}
	approx := reModel.Accuracy(foggyTest, r.valY)
	if math.Abs(exact-approx) > 0.02 {
		t.Fatalf("delta reconstruction changed accuracy: %v vs %v", exact, approx)
	}
}

func TestDeltaSmallerThanSnapshot(t *testing.T) {
	r := getRig(t)
	rng := tensor.NewRand(41, 41)
	foggy := r.world.CorruptBatch(r.trainX, imagesim.Fog, imagesim.DefaultSeverity, rng)
	adapted, err := AdaptContext(context.Background(), r.base, foggy, Config{Rng: rng, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := nn.CaptureBN(r.base)
	target := nn.CaptureBN(adapted)
	delta, err := DiffBN(ref, target)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(target.SizeBytes()) / float64(delta.SizeBytes()); ratio < 3 {
		t.Fatalf("delta only %vx smaller than full snapshot", ratio)
	}
	// And it survives the wire.
	data, err := delta.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBNDelta(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := back.Apply(ref); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaTamperDetection(t *testing.T) {
	r := getRig(t)
	ref := nn.CaptureBN(r.base)
	// Identity delta (target == ref).
	delta, err := DiffBN(ref, ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := delta.Apply(ref); err != nil {
		t.Fatal(err)
	}
	delta.Layers[0].GammaQ[0] += 7 // tamper
	if _, err := delta.Apply(ref); err == nil {
		t.Fatal("tampered delta must be rejected")
	}
}

func TestDeltaShapeValidation(t *testing.T) {
	r := getRig(t)
	ref := nn.CaptureBN(r.base)
	other := nn.CaptureBN(nn.NewClassifier(nn.ArchResNet18, r.world.Dim(), 3, tensor.NewRand(1, 1)))
	if _, err := DiffBN(ref, other); err == nil {
		t.Fatal("layer-count mismatch must error")
	}
	delta, err := DiffBN(other, other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := delta.Apply(ref); err == nil {
		t.Fatal("applying to the wrong reference must error")
	}
}

func TestDeltaVariancePositivity(t *testing.T) {
	r := getRig(t)
	ref := nn.CaptureBN(r.base)
	target := nn.CaptureBN(r.base)
	// Force a near-zero variance in the target.
	target.Layers[0].RunVar[0] = 1e-15
	delta, err := DiffBN(ref, target)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := delta.Apply(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rebuilt.Layers[0].RunVar {
		if v <= 0 {
			t.Fatalf("non-positive reconstructed variance %v", v)
		}
	}
}

func BenchmarkDeltaSizeChain(b *testing.B) {
	// The per-adaptation wire-size chain: full model -> BN snapshot ->
	// quantized delta.
	world := imagesim.NewWorld(imagesim.DefaultConfig(12, 321))
	rng := tensor.NewRand(321, 1)
	base := nn.NewClassifier(nn.ArchResNet50, world.Dim(), 12, rng)
	x := tensor.New(128, world.Dim())
	for i := 0; i < x.Rows; i++ {
		copy(x.Row(i), world.Corrupt(world.Sample(i%12, rng), imagesim.Fog, 3, rng))
	}
	adapted, err := AdaptContext(context.Background(), base, x, Config{Rng: rng, Epochs: 1})
	if err != nil {
		b.Fatal(err)
	}
	ref := nn.CaptureBN(base)
	target := nn.CaptureBN(adapted)
	b.ResetTimer()
	var delta *BNDelta
	for i := 0; i < b.N; i++ {
		delta, err = DiffBN(ref, target)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := delta.Apply(ref); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(base.SizeBytes()), "model-bytes")
	b.ReportMetric(float64(target.SizeBytes()), "snapshot-bytes")
	b.ReportMetric(float64(delta.SizeBytes()), "delta-bytes")
}
