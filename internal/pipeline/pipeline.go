// Package pipeline runs the paper's end-to-end streaming workloads
// (§5.7): a fleet of simulated devices streams time-ordered inferences
// under historical-weather drift while the cloud periodically analyzes
// the drift log and deploys by-cause adaptations. Three strategies are
// supported — Nazar, adapt-all (the Ekya-style baseline) and no-adapt —
// and the per-window metrics behind Figures 8 and 9 are collected.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/cloud"
	"nazar/internal/dataset"
	"nazar/internal/detect"
	"nazar/internal/device"
	"nazar/internal/driftlog"
	"nazar/internal/imagesim"
	"nazar/internal/metrics"
	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/rca"
	"nazar/internal/tensor"
	"nazar/internal/weather"
)

// Strategy selects how (and whether) models adapt over the run.
type Strategy string

const (
	// Nazar is the full system: detection → RCA → by-cause adaptation.
	Nazar Strategy = "nazar"
	// AdaptAll continuously adapts one model on all sampled input each
	// window (the baseline used by Ekya-style systems).
	AdaptAll Strategy = "adapt-all"
	// NoAdapt never adapts the pretrained model.
	NoAdapt Strategy = "no-adapt"
	// AdaptDrifted continuously adapts one model on only the samples
	// whose on-device drift flag was true. The paper evaluated this
	// variant and found it always worse than adapt-all (§5.2,
	// "Baselines"), so it is not in the headline charts.
	AdaptDrifted Strategy = "adapt-drifted"
)

// Strategies lists the three compared strategies.
var Strategies = []Strategy{NoAdapt, AdaptAll, Nazar}

// Config parameterizes one end-to-end run.
type Config struct {
	Strategy Strategy
	// Windows is the number of adaptation intervals the evaluation
	// calendar is split into (paper default 8).
	Windows int
	// Severity is the weather-drift corruption severity (paper default
	// 3).
	Severity int
	// SampleRate is the device upload fraction.
	SampleRate float64
	// DetectorThreshold is the on-device MSP threshold. The paper's
	// default is 0.9; our synthetic substrate's confidence distribution
	// is right-shifted (clean median MSP ≈ 0.995), so the equivalent
	// operating point is 0.95 — the same threshold the paper uses for
	// its real-rain detection experiment.
	DetectorThreshold float64
	// PoolCapacity caps per-device versions (0 = unlimited).
	PoolCapacity int
	// Cloud configures the Nazar cloud service (ignored by baselines).
	Cloud cloud.Config
	// CumulativeAnalysis analyzes the drift log from the start of the
	// deployment each cycle (samples accumulate per cause), rather
	// than only the most recent window.
	CumulativeAnalysis bool
	// FaultyDeviceFraction gives each device that probability of a
	// persistent sensor defect (the paper's hardware drift source: a
	// bad camera/lens on specific devices). Faulty devices' inputs are
	// additionally distorted by their device-specific defect at
	// FaultSeverity.
	FaultyDeviceFraction float64
	// FaultSeverity is the defect severity (default 3).
	FaultSeverity int
	// Weather, when non-nil, replaces the seeded synthetic generator —
	// e.g. weather.Records loaded from a historical CSV.
	Weather weather.Source
	// Observer, when non-nil, instruments the run: the cloud service's
	// counters/histograms and a fleet-wide device instrument set are
	// registered on it (expose it with obs.Registry.Handler or snapshot
	// it with WritePrometheus after the run).
	Observer *obs.Registry
	// Quantized serves every on-device inference through the int8 fast
	// path: each device quantizes the models its pool selects (weights
	// to per-channel int8, BN folded into the requantization scales)
	// and runs prediction, MSP scoring, and drift detection on the
	// quantized logits. Activation calibration uses a slice of the
	// clean training split.
	Quantized bool
	// QuantShadowEvery, in quantized mode, makes every device also run
	// the float model on every Nth inference and count drift-verdict
	// disagreements (surfaced as nazar_quant_shadow_total on the
	// Observer). 0 disables shadowing.
	QuantShadowEvery int
	// RetireAfter evicts a device's version when its cause has been
	// absent from the last N analyses (0 — the default — disables
	// retirement). Enable it when early windows can diagnose confounded
	// causes (e.g. a device-ID cause under a blanket weather event)
	// whose stale versions would keep capturing that device's traffic;
	// under stable cause sets it only churns versions (see the
	// retirement tests).
	RetireAfter int
	Seed        uint64
}

// DefaultConfig returns the paper-default end-to-end configuration.
func DefaultConfig(strategy Strategy, seed uint64) Config {
	c := cloud.DefaultConfig()
	c.MinSamplesPerCause = 12
	c.AdaptCfg.Epochs = 2
	return Config{
		Strategy:           strategy,
		Windows:            8,
		Severity:           imagesim.DefaultSeverity,
		SampleRate:         0.5,
		DetectorThreshold:  0.95,
		Cloud:              c,
		CumulativeAnalysis: true,
		Seed:               seed,
	}
}

// WindowStats are the per-window measurements.
type WindowStats struct {
	AccAll, AccDrift       float64
	NAll, NDrift           int
	DetectionRate          float64
	VersionCount           int
	Causes                 []string
	RCADuration            time.Duration
	AdaptDuration          time.Duration
	CumAccAll, CumAccDrift float64
}

// Result aggregates a full run.
type Result struct {
	Strategy Strategy
	Windows  []WindowStats
	// PerDrift aggregates accuracy by weather drift type across the
	// whole run.
	PerDrift map[imagesim.Corruption]*metrics.RunningAccuracy
	// FaultyDevices lists devices assigned a sensor defect.
	FaultyDevices []string
	// FaultyAcc / HealthyAcc aggregate accuracy on faulty vs healthy
	// devices across the run (only meaningful with faults enabled).
	FaultyAcc, HealthyAcc metrics.RunningAccuracy
}

// AvgAccLast returns the mean per-window accuracy (all data) over the
// last n windows — Fig. 8a averages the last 7.
func (r *Result) AvgAccLast(n int) (mean, std float64) {
	vals := lastVals(r.Windows, n, func(w WindowStats) float64 { return w.AccAll })
	return metrics.Mean(vals), metrics.Std(vals)
}

// AvgDriftAccLast is AvgAccLast over drifted data only.
func (r *Result) AvgDriftAccLast(n int) (mean, std float64) {
	var vals []float64
	for _, w := range lastWindows(r.Windows, n) {
		if w.NDrift > 0 {
			vals = append(vals, w.AccDrift)
		}
	}
	return metrics.Mean(vals), metrics.Std(vals)
}

func lastWindows(ws []WindowStats, n int) []WindowStats {
	if n >= len(ws) {
		return ws
	}
	return ws[len(ws)-n:]
}

func lastVals(ws []WindowStats, n int, f func(WindowStats) float64) []float64 {
	sel := lastWindows(ws, n)
	vals := make([]float64, len(sel))
	for i, w := range sel {
		vals[i] = f(w)
	}
	return vals
}

// conditionCorruption maps a weather condition to its drift operator.
func conditionCorruption(c weather.Condition) (imagesim.Corruption, bool) {
	switch c {
	case weather.Rain:
		return imagesim.Rain, true
	case weather.Snow:
		return imagesim.Snow, true
	case weather.Fog:
		return imagesim.Fog, true
	default:
		return "", false
	}
}

// Run executes the workload on the dataset with the given pretrained base
// model.
func Run(ds *dataset.Dataset, base *nn.Network, cfg Config) (*Result, error) {
	if cfg.Windows <= 0 {
		cfg.Windows = 8
	}
	if cfg.Severity <= 0 {
		cfg.Severity = imagesim.DefaultSeverity
	}
	if cfg.Strategy == "" {
		cfg.Strategy = Nazar
	}
	if cfg.DetectorThreshold <= 0 {
		cfg.DetectorThreshold = detect.DefaultMSPThreshold
	}
	ctx := context.TODO() // Run's signature carries no context yet
	rng := tensor.NewRand(cfg.Seed, 0xE2E)
	var gen weather.Source = cfg.Weather
	if gen == nil {
		gen = weather.NewGenerator(cfg.Seed)
	}
	windows := ds.WindowSlices(cfg.Windows)

	var svcOpts []cloud.Option
	var fleetMetrics *device.Metrics
	if cfg.Observer != nil {
		svcOpts = append(svcOpts, cloud.WithObserver(cfg.Observer))
		fleetMetrics = device.NewMetrics(cfg.Observer)
	}
	svc := cloud.NewService(base, cfg.Cloud, svcOpts...)

	// Quantized mode calibrates activation scales on a slice of the
	// clean training split — the same data every device's base model was
	// trained on, so the fleet shares one calibration batch.
	var calX *tensor.Matrix
	if cfg.Quantized {
		rows := min(128, ds.Train.X.Rows)
		calX = tensor.New(rows, ds.Train.X.Cols)
		copy(calX.Data, ds.Train.X.Data[:rows*ds.Train.X.Cols])
	}

	devices := map[string]*device.Device{}
	getDevice := func(id, location string) *device.Device {
		if d, ok := devices[id]; ok {
			return d
		}
		d := device.New(device.Config{
			ID:           id,
			Location:     location,
			PoolCapacity: cfg.PoolCapacity,
			SampleRate:   cfg.SampleRate,
			Detector:     detect.Threshold{Scorer: detect.MSP{}, T: cfg.DetectorThreshold},
			Metrics:      fleetMetrics,
			Quantized:    cfg.Quantized,
			Calibration:  calX,
			ShadowEvery:  cfg.QuantShadowEvery,
			Rng:          tensor.NewRand(cfg.Seed^hashString(id), 0xD),
		}, base)
		devices[id] = d
		return d
	}

	// Assign persistent sensor defects deterministically per device.
	if cfg.FaultSeverity <= 0 {
		cfg.FaultSeverity = imagesim.DefaultSeverity
	}
	isFaulty := func(deviceID string) bool {
		if cfg.FaultyDeviceFraction <= 0 {
			return false
		}
		h := hashString(deviceID) ^ cfg.Seed
		return float64(h%10000)/10000 < cfg.FaultyDeviceFraction
	}

	// adapt-all state: one continuously adapted model shared by all.
	currentAll := base
	res := &Result{
		Strategy: cfg.Strategy,
		PerDrift: map[imagesim.Corruption]*metrics.RunningAccuracy{},
	}
	faultySeen := map[string]bool{}
	causeLastSeen := map[string]int{}
	retireStale := func(w int, causes []rca.Cause) {
		for _, c := range causes {
			causeLastSeen[c.Key()] = w
		}
		if cfg.RetireAfter <= 0 {
			return
		}
		for _, d := range devices {
			for _, key := range d.Pool.CauseKeys() {
				if last, ok := causeLastSeen[key]; !ok || w-last >= cfg.RetireAfter {
					d.Pool.RemoveByCause(key)
				}
			}
		}
	}

	var cumAll, cumDrift metrics.RunningAccuracy
	windowSpan := weather.End.AddDate(0, 0, 1).Sub(weather.Start) / time.Duration(cfg.Windows)

	for w, items := range windows {
		var stats WindowStats
		var winAll, winDrift metrics.RunningAccuracy
		detected := 0
		var allSamples [][]float64
		// The window's reports, handed to the cloud in one batch when the
		// window closes (nothing reads the log before then).
		var reports []driftlog.Entry
		var uploads [][]float64

		for _, item := range items {
			cond, err := gen.ConditionAt(item.Location, item.Time.Truncate(24*time.Hour))
			if err != nil {
				return nil, fmt.Errorf("pipeline: weather: %w", err)
			}
			x := item.X
			corr, drifted := conditionCorruption(cond)
			if drifted {
				x = ds.World.Corrupt(x, corr, cfg.Severity, rng)
			}
			faulty := isFaulty(item.DeviceID)
			if faulty {
				if !faultySeen[item.DeviceID] {
					faultySeen[item.DeviceID] = true
					res.FaultyDevices = append(res.FaultyDevices, item.DeviceID)
				}
				x = ds.World.DeviceFault(x, item.DeviceID, cfg.FaultSeverity, rng)
			}
			dev := getDevice(item.DeviceID, item.Location)
			inf, entry, sample := dev.Infer(item.Time, x, map[string]string{
				driftlog.AttrWeather: string(cond),
			})
			correct := inf.Predicted == item.Class
			winAll.Observe(correct)
			cumAll.Observe(correct)
			if cfg.FaultyDeviceFraction > 0 {
				if faulty {
					res.FaultyAcc.Observe(correct)
				} else {
					res.HealthyAcc.Observe(correct)
				}
			}
			if drifted {
				winDrift.Observe(correct)
				cumDrift.Observe(correct)
				ra := res.PerDrift[corr]
				if ra == nil {
					ra = &metrics.RunningAccuracy{}
					res.PerDrift[corr] = ra
				}
				ra.Observe(correct)
			}
			if inf.Drift {
				detected++
			}
			switch cfg.Strategy {
			case Nazar:
				reports = append(reports, entry)
				uploads = append(uploads, sample)
			case AdaptAll:
				if sample != nil {
					allSamples = append(allSamples, sample)
				}
			case AdaptDrifted:
				if sample != nil && entry.Drift {
					allSamples = append(allSamples, sample)
				}
			}
		}

		if len(reports) > 0 {
			if err := svc.IngestBatchContext(ctx, reports, uploads); err != nil {
				return nil, fmt.Errorf("pipeline: window %d ingest: %w", w, err)
			}
		}

		stats.AccAll = winAll.Value()
		stats.NAll = winAll.Total
		stats.AccDrift = winDrift.Value()
		stats.NDrift = winDrift.Total
		if winAll.Total > 0 {
			stats.DetectionRate = float64(detected) / float64(winAll.Total)
		}
		stats.CumAccAll = cumAll.Value()
		stats.CumAccDrift = cumDrift.Value()

		// End-of-window adaptation.
		switch cfg.Strategy {
		case Nazar:
			from := weather.Start.Add(time.Duration(w) * windowSpan)
			to := from.Add(windowSpan)
			if cfg.CumulativeAnalysis {
				from = weather.Start
			}
			wres, err := svc.RunWindowContext(ctx, from, to, to)
			if err != nil {
				return nil, fmt.Errorf("pipeline: window %d: %w", w, err)
			}
			stats.RCADuration = wres.RCADuration
			stats.AdaptDuration = wres.AdaptDuration
			for _, c := range wres.Causes {
				stats.Causes = append(stats.Causes, c.String())
			}
			for _, d := range devices {
				for _, version := range wres.Versions {
					if err := d.Pool.Install(version, to); err != nil {
						return nil, fmt.Errorf("pipeline: deploy: %w", err)
					}
				}
			}
			retireStale(w, wres.Causes)
		case AdaptAll, AdaptDrifted:
			if len(allSamples) >= 8 {
				pool := tensor.New(len(allSamples), ds.World.Dim())
				for i, s := range allSamples {
					copy(pool.Row(i), s)
				}
				start := time.Now()
				// The adapt-all baseline (Ekya-style systems, plain TENT):
				// one model adapted on the pooled samples of every cause.
				adapted, err := adapt.AdaptContext(ctx, currentAll, pool, cfg.Cloud.AdaptCfg)
				if err != nil {
					return nil, fmt.Errorf("pipeline: adapt-all: %w", err)
				}
				stats.AdaptDuration = time.Since(start)
				currentAll = adapted
				for _, d := range devices {
					d.Pool.SetBase(adapted)
				}
			}
		}
		// Record pool occupancy (identical across devices: deployments
		// fan out to the whole fleet).
		for _, d := range devices {
			if n := d.Pool.Len(); n > stats.VersionCount {
				stats.VersionCount = n
			}
		}
		res.Windows = append(res.Windows, stats)
	}
	return res, nil
}

// TrainBase trains a fresh classifier for the dataset (the pre-deployment
// model the paper ships at time zero).
func TrainBase(ds *dataset.Dataset, arch nn.Arch, epochs int, seed uint64) *nn.Network {
	rng := tensor.NewRand(seed, 0xBA5E)
	net := nn.NewClassifier(arch, ds.World.Dim(), ds.World.Classes(), rng)
	nn.Fit(net, ds.Train.X, ds.Train.Labels, nn.TrainConfig{Epochs: epochs, BatchSize: 32, Rng: rng})
	return net
}

// CleanValAccuracy reports the base model's accuracy on the clean
// validation split.
func CleanValAccuracy(ds *dataset.Dataset, net *nn.Network) float64 {
	return net.Accuracy(ds.Val.X, ds.Val.Labels)
}

func hashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range []byte(s) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}
