package device

import (
	"context"
	"testing"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/detect"
	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/tensor"
)

func newDevice(t *testing.T, sampleRate float64) (*Device, *imagesim.World, *nn.Network) {
	t.Helper()
	world := imagesim.NewWorld(imagesim.DefaultConfig(8, 55))
	rng := tensor.NewRand(55, 1)
	base := nn.NewClassifier(nn.ArchResNet18, world.Dim(), 8, rng)
	// Light training so predictions are meaningful.
	n := 240
	x := tensor.New(n, world.Dim())
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % 8
		copy(x.Row(i), world.Sample(y[i], rng))
	}
	nn.Fit(base, x, y, nn.TrainConfig{Epochs: 10, BatchSize: 32, Rng: rng})
	d := New(Config{
		ID:         "android_test",
		Location:   "Hamburg",
		SampleRate: sampleRate,
		Rng:        tensor.NewRand(56, 1),
	}, base)
	return d, world, base
}

func TestInferEmitsEntry(t *testing.T) {
	d, world, _ := newDevice(t, 1.0)
	rng := tensor.NewRand(57, 1)
	x := world.Sample(3, rng)
	now := time.Date(2020, 1, 5, 12, 0, 0, 0, time.UTC)
	inf, entry, sample := d.Infer(now, x, map[string]string{driftlog.AttrWeather: "clear-day"})

	if inf.Predicted < 0 || inf.Predicted >= 8 {
		t.Fatalf("prediction %d out of range", inf.Predicted)
	}
	if inf.MSP <= 0 || inf.MSP > 1 {
		t.Fatalf("msp %v", inf.MSP)
	}
	if entry.Attrs[driftlog.AttrDevice] != "android_test" ||
		entry.Attrs[driftlog.AttrLocation] != "Hamburg" ||
		entry.Attrs[driftlog.AttrWeather] != "clear-day" {
		t.Fatalf("entry attrs %v", entry.Attrs)
	}
	if entry.Attrs[driftlog.AttrModel] != "clean" {
		t.Fatalf("model attr %q", entry.Attrs[driftlog.AttrModel])
	}
	if !entry.Time.Equal(now) {
		t.Fatal("entry time mismatch")
	}
	if !inf.Sampled || sample == nil {
		t.Fatal("sample rate 1.0 must sample")
	}
	// Sample must be a copy.
	sample[0] += 99
	if x[0] == sample[0] {
		t.Fatal("sample aliases input")
	}
}

func TestSampleRateZeroNeverSamples(t *testing.T) {
	d, world, _ := newDevice(t, 0)
	rng := tensor.NewRand(58, 1)
	for i := 0; i < 20; i++ {
		inf, _, sample := d.Infer(time.Now(), world.Sample(i%8, rng), nil)
		if inf.Sampled || sample != nil {
			t.Fatal("sampled despite rate 0")
		}
	}
}

func TestDriftDetectionOnCorrupted(t *testing.T) {
	d, world, _ := newDevice(t, 0)
	rng := tensor.NewRand(59, 1)
	driftCount, cleanCount := 0, 0
	const n = 120
	for i := 0; i < n; i++ {
		c := i % 8
		clean := world.Sample(c, rng)
		corrupted := world.Corrupt(clean, imagesim.Fog, 5, rng)
		if inf, _, _ := d.Infer(time.Now(), clean, nil); inf.Drift {
			cleanCount++
		}
		if inf, _, _ := d.Infer(time.Now(), corrupted, nil); inf.Drift {
			driftCount++
		}
	}
	if driftCount <= cleanCount {
		t.Fatalf("detector flagged clean %d >= corrupted %d", cleanCount, driftCount)
	}
}

func TestVersionSelectionUsedForInference(t *testing.T) {
	d, world, base := newDevice(t, 0)
	rng := tensor.NewRand(60, 1)

	// Build a fog-adapted version and install it.
	pool := tensor.New(128, world.Dim())
	for i := 0; i < pool.Rows; i++ {
		copy(pool.Row(i), world.Corrupt(world.Sample(i%8, rng), imagesim.Fog, 3, rng))
	}
	adapted, err := adapt.AdaptContext(context.Background(), base, pool, adapt.Config{Rng: rng, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := adapt.BNVersion{
		ID: "fog-v1",
		Cause: rca.Cause{Items: fim.NewItemset(
			driftlog.Cond{Attr: driftlog.AttrWeather, Value: "fog"})},
		Snapshot:  nn.CaptureBN(adapted),
		CreatedAt: time.Now(),
	}
	if err := d.Pool.Install(v, time.Now()); err != nil {
		t.Fatal(err)
	}

	x := world.Corrupt(world.Sample(0, rng), imagesim.Fog, 3, rng)
	_, entryFog, _ := d.Infer(time.Now(), x, map[string]string{driftlog.AttrWeather: "fog"})
	if entryFog.Attrs[driftlog.AttrModel] != "fog-v1" {
		t.Fatalf("fog input should use fog-v1, got %q", entryFog.Attrs[driftlog.AttrModel])
	}
	_, entryClear, _ := d.Infer(time.Now(), x, map[string]string{driftlog.AttrWeather: "clear-day"})
	if entryClear.Attrs[driftlog.AttrModel] != "clean" {
		t.Fatalf("clear input should use clean model, got %q", entryClear.Attrs[driftlog.AttrModel])
	}
}

func TestCustomDetector(t *testing.T) {
	world := imagesim.NewWorld(imagesim.DefaultConfig(4, 1))
	base := nn.NewClassifier(nn.ArchResNet18, world.Dim(), 4, tensor.NewRand(1, 1))
	// A detector that always fires.
	d := New(Config{ID: "x", Location: "y",
		Detector: detect.Threshold{Scorer: detect.MSP{}, T: 2.0},
		Rng:      tensor.NewRand(2, 2)}, base)
	inf, entry, _ := d.Infer(time.Now(), world.Sample(0, tensor.NewRand(3, 3)), nil)
	if !inf.Drift || !entry.Drift {
		t.Fatal("always-fire detector did not fire")
	}
}
