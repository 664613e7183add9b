// Package device simulates the on-device half of Nazar: per-input model
// version selection from the local pool, inference, lightweight MSP drift
// detection, drift-log entry emission with device metadata, and sampled
// input upload.
//
// A Device is what the paper's SDK embeds in a mobile app; the fleet
// simulator drives many of them against the streaming workloads.
package device

import (
	"fmt"
	"math/rand/v2"
	"time"

	"nazar/internal/detect"
	"nazar/internal/driftlog"
	"nazar/internal/nn"
	"nazar/internal/registry"
	"nazar/internal/tensor"
)

// Config parameterizes one device.
type Config struct {
	ID       string
	Location string
	// PoolCapacity caps the number of adapted BN versions kept locally
	// (0 = unlimited).
	PoolCapacity int
	// SampleRate is the fraction of inputs uploaded to the cloud for
	// adaptation.
	SampleRate float64
	// Detector is the on-device drift detector (defaults to the MSP
	// threshold at 0.9).
	Detector detect.Detector
	// TraceCapacity sizes the inference trace ring buffer (default
	// 128).
	TraceCapacity int
	// Metrics, when non-nil, receives every inference (share one set
	// across a fleet; see NewMetrics).
	Metrics *Metrics
	// Quantized switches serving to the int8 fast path: every model
	// version the pool selects is quantized on first use (per-channel
	// int8 weights with fused requantization) and cached, and
	// prediction, MSP scoring, and drift detection all run on the
	// quantized logits — serving never leaves int8. Requires
	// Calibration.
	Quantized bool
	// Calibration is the activation-calibration batch for quantized
	// mode (recent in-distribution inputs; 64–128 rows is plenty).
	Calibration *tensor.Matrix
	// ShadowEvery > 0 runs the float model alongside every Nth
	// quantized inference and compares drift verdicts, feeding the
	// nazar_quant_shadow_* metrics. The comparison calls the detector
	// twice per shadowed input, so it requires a stateless detector
	// (the default MSP threshold is).
	ShadowEvery int
	Rng         *rand.Rand
}

// Device is one simulated mobile device.
type Device struct {
	ID       string
	Location string
	Pool     *registry.Pool
	// Trace records recent inferences for support debugging.
	Trace    *Trace
	detector detect.Detector
	rate     float64
	metrics  *Metrics
	rng      *rand.Rand

	// Quantized-mode state. qcache maps a pool entry's materialized
	// network to its int8 form; pool entries are stable pointers until
	// replaced, so first use quantizes and later inferences hit the
	// cache. Like the rest of a Device, it is single-goroutine.
	quantized   bool
	cal         *tensor.Matrix
	shadowEvery int
	inferCount  uint64
	qcache      map[*nn.Network]*nn.QuantizedNetwork
}

// quantCacheLimit bounds qcache: evicted pool versions leave stale keys
// behind, so past this size the cache is reset and rebuilt on demand.
const quantCacheLimit = 64

// New creates a device around a base model. The base network may be
// shared across devices: installed versions are views of it
// (adapt.Materialize), so a fleet holds its weights once. Until a clean
// version is installed the devices also share the base's inference
// scratch — drive them from one goroutine, or give each base.View().
// In quantized mode the base is quantized eagerly, so a missing or
// mis-shaped calibration batch fails here (with a panic: it is a
// configuration error) rather than mid-inference.
func New(cfg Config, base *nn.Network) *Device {
	if cfg.Detector == nil {
		cfg.Detector = detect.NewMSPThreshold()
	}
	if cfg.Rng == nil {
		cfg.Rng = tensor.NewRand(0xDEF1CE, 1)
	}
	d := &Device{
		ID:          cfg.ID,
		Location:    cfg.Location,
		Pool:        registry.NewPool(base, cfg.PoolCapacity),
		Trace:       NewTrace(cfg.TraceCapacity),
		detector:    cfg.Detector,
		rate:        cfg.SampleRate,
		metrics:     cfg.Metrics,
		rng:         cfg.Rng,
		quantized:   cfg.Quantized,
		cal:         cfg.Calibration,
		shadowEvery: cfg.ShadowEvery,
	}
	if d.quantized {
		d.qcache = make(map[*nn.Network]*nn.QuantizedNetwork)
		d.quantFor(base)
	}
	return d
}

// quantFor returns the cached int8 form of net, quantizing on first
// use. Every pool entry shares the base topology (Materialize enforces
// it) and the calibration batch was validated against the base in New,
// so a quantization failure here is an invariant violation.
func (d *Device) quantFor(net *nn.Network) *nn.QuantizedNetwork {
	if qn, ok := d.qcache[net]; ok {
		return qn
	}
	if len(d.qcache) >= quantCacheLimit {
		clear(d.qcache)
	}
	qn, err := nn.QuantizeInt8(net, d.cal)
	if err != nil {
		panic(fmt.Sprintf("device %s: quantized mode: %v", d.ID, err))
	}
	d.qcache[net] = qn
	return qn
}

// Inference is the outcome of one on-device prediction.
type Inference struct {
	Predicted int
	MSP       float64
	Drift     bool
	// VersionID is the adapted version used ("" = clean model).
	VersionID string
	// Sampled reports whether the input was uploaded.
	Sampled bool
	// Quantized reports whether the int8 fast path served this
	// prediction.
	Quantized bool
	// QuantSat counts requantization saturations (activation codes
	// clamped to ±127) during this inference — a sustained rise means
	// the calibration range no longer covers the input distribution.
	QuantSat int
	// ShadowChecked marks inferences where the float model also ran;
	// ShadowDisagree is set when its drift verdict differed from the
	// quantized one.
	ShadowChecked  bool
	ShadowDisagree bool
}

// Infer selects a model version for the input's metadata, runs inference
// and the drift detector, and returns both the inference and the
// drift-log entry to report (sample is nil when not uploaded).
func (d *Device) Infer(t time.Time, x []float64, attrs map[string]string) (Inference, driftlog.Entry, []float64) {
	merged := map[string]string{
		driftlog.AttrDevice:   d.ID,
		driftlog.AttrLocation: d.Location,
	}
	for k, v := range attrs {
		merged[k] = v
	}
	net, versionID := d.Pool.Select(merged)
	inf := Inference{VersionID: versionID}
	var logits []float64
	if d.quantized {
		qn := d.quantFor(net)
		sat0 := qn.Saturations()
		logits = qn.LogitsOne(x)
		inf.Quantized = true
		inf.QuantSat = int(qn.Saturations() - sat0)
	} else {
		logits = net.LogitsOne(x)
	}
	pred, _ := tensor.ArgMax(logits)
	msp := detect.MSP{}.Score(logits)
	drift := d.detector.Detect(logits)
	inf.Predicted, inf.MSP, inf.Drift = pred, msp, drift

	d.inferCount++
	if inf.Quantized && d.shadowEvery > 0 && d.inferCount%uint64(d.shadowEvery) == 0 {
		inf.ShadowChecked = true
		inf.ShadowDisagree = d.detector.Detect(net.LogitsOne(x)) != drift
	}
	d.Trace.Record(TraceRecord{Time: t, Predicted: pred, MSP: msp, Drift: drift, VersionID: versionID})
	var sample []float64
	if d.rate > 0 && d.rng.Float64() < d.rate {
		inf.Sampled = true
		sample = append([]float64(nil), x...)
	}
	d.metrics.observe(inf)
	merged[driftlog.AttrModel] = modelAttr(versionID)
	entry := driftlog.Entry{
		Time:     t,
		Attrs:    merged,
		Drift:    drift,
		SampleID: -1, // assigned by the cloud on ingest when sample != nil
	}
	return inf, entry, sample
}

// modelAttr normalizes the version ID for the drift log's model column.
func modelAttr(versionID string) string {
	if versionID == "" {
		return "clean"
	}
	return versionID
}
