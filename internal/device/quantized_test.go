package device

import (
	"context"
	"strings"
	"testing"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/rca"
	"nazar/internal/tensor"
)

// newQuantDevice mirrors newDevice but serves on the int8 fast path,
// calibrated on clean training samples.
func newQuantDevice(t *testing.T, cfg Config) (*Device, *imagesim.World, *nn.Network) {
	t.Helper()
	world := imagesim.NewWorld(imagesim.DefaultConfig(8, 55))
	rng := tensor.NewRand(55, 1)
	base := nn.NewClassifier(nn.ArchResNet18, world.Dim(), 8, rng)
	n := 240
	x := tensor.New(n, world.Dim())
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % 8
		copy(x.Row(i), world.Sample(y[i], rng))
	}
	nn.Fit(base, x, y, nn.TrainConfig{Epochs: 10, BatchSize: 32, Rng: rng})

	cal := tensor.New(96, world.Dim())
	for i := 0; i < cal.Rows; i++ {
		copy(cal.Row(i), world.Sample(i%8, rng))
	}
	cfg.ID, cfg.Location = "android_q", "Hamburg"
	cfg.Quantized = true
	cfg.Calibration = cal
	if cfg.Rng == nil {
		cfg.Rng = tensor.NewRand(56, 1)
	}
	return New(cfg, base), world, base
}

// TestQuantizedInferServesInt8 checks the int8 path end to end: the
// inference is marked quantized, predictions overwhelmingly agree with
// the float model, drift verdicts come from the quantized logits, and
// the drift-log entry is emitted exactly as in float mode.
func TestQuantizedInferServesInt8(t *testing.T) {
	d, world, base := newQuantDevice(t, Config{})
	rng := tensor.NewRand(57, 1)
	agree, total := 0, 120
	for i := 0; i < total; i++ {
		x := world.Sample(i%8, rng)
		inf, entry, _ := d.Infer(time.Now(), x, map[string]string{driftlog.AttrWeather: "clear-day"})
		if !inf.Quantized {
			t.Fatal("quantized device served a float inference")
		}
		if inf.MSP <= 0 || inf.MSP > 1 {
			t.Fatalf("msp %v", inf.MSP)
		}
		if entry.Attrs[driftlog.AttrModel] != "clean" || entry.Attrs[driftlog.AttrWeather] != "clear-day" {
			t.Fatalf("entry attrs %v", entry.Attrs)
		}
		fl := base.LogitsOne(x)
		fpred, _ := tensor.ArgMax(fl)
		if inf.Predicted == fpred {
			agree++
		}
	}
	if agree < total*9/10 {
		t.Fatalf("int8 agrees with float on %d/%d predictions", agree, total)
	}
}

// TestQuantizedShadowCadence pins the shadow-compare schedule: with
// ShadowEvery=3, exactly every third inference runs the float model and
// compares drift verdicts.
func TestQuantizedShadowCadence(t *testing.T) {
	d, world, _ := newQuantDevice(t, Config{ShadowEvery: 3})
	rng := tensor.NewRand(58, 1)
	checked := 0
	for i := 0; i < 30; i++ {
		inf, _, _ := d.Infer(time.Now(), world.Sample(i%8, rng), nil)
		if inf.ShadowChecked {
			checked++
			if (i+1)%3 != 0 {
				t.Fatalf("shadow check on inference %d with ShadowEvery=3", i+1)
			}
		}
		if inf.ShadowDisagree && !inf.ShadowChecked {
			t.Fatal("disagreement without a shadow check")
		}
	}
	if checked != 10 {
		t.Fatalf("%d shadow checks over 30 inferences, want 10", checked)
	}
}

// TestQuantizedVersionSelection proves installed BN versions are served
// quantized too: the pool's materialized network is quantized on first
// selection and cached after that.
func TestQuantizedVersionSelection(t *testing.T) {
	d, world, base := newQuantDevice(t, Config{})
	rng := tensor.NewRand(60, 1)

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
	inf, entry, _ := d.Infer(time.Now(), x, map[string]string{driftlog.AttrWeather: "fog"})
	if !inf.Quantized || entry.Attrs[driftlog.AttrModel] != "fog-v1" {
		t.Fatalf("fog input: quantized=%v model=%q", inf.Quantized, entry.Attrs[driftlog.AttrModel])
	}
	if len(d.qcache) != 2 {
		t.Fatalf("qcache holds %d entries, want base + fog-v1", len(d.qcache))
	}
	// Second fog inference hits the cache, not a re-quantization.
	d.Infer(time.Now(), x, map[string]string{driftlog.AttrWeather: "fog"})
	if len(d.qcache) != 2 {
		t.Fatalf("qcache grew to %d on a repeat selection", len(d.qcache))
	}
}

// TestQuantizedRequiresCalibration: quantized mode without a
// calibration batch is a configuration error and must fail loudly at
// construction, not mid-inference.
func TestQuantizedRequiresCalibration(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 4, tensor.NewRand(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on quantized mode without calibration")
		}
	}()
	New(Config{ID: "x", Quantized: true}, base)
}

// TestQuantizedMetricsExposition drives an instrumented quantized
// device and pins the nazar_quant_* families on /metrics, including the
// exact counter samples the cadence determines.
func TestQuantizedMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	d, world, _ := newQuantDevice(t, Config{ShadowEvery: 2, Metrics: m})
	rng := tensor.NewRand(62, 1)
	for i := 0; i < 6; i++ {
		d.Infer(time.Now(), world.Sample(i%8, rng), nil)
	}

	if got := m.quantInferences.Value(); got != 6 {
		t.Fatalf("quant inference counter %d, want 6", got)
	}
	if got := m.shadowAgree.Value() + m.shadowDisagree.Value(); got != 3 {
		t.Fatalf("shadow comparisons %d, want 3 at ShadowEvery=2", got)
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"# TYPE nazar_quant_inferences_total counter",
		"nazar_quant_inferences_total 6",
		"# TYPE nazar_quant_saturations_total counter",
		"# TYPE nazar_quant_shadow_total counter",
		`nazar_quant_shadow_total{verdict="agree"}`,
		`nazar_quant_shadow_total{verdict="disagree"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}
