// Package pipeline runs the paper's end-to-end streaming workloads
// (§5.7): a fleet of simulated devices streams time-ordered inferences
// under historical-weather drift while the cloud periodically analyzes
// the drift log and deploys by-cause adaptations. Three strategies are
// supported — Nazar, adapt-all (the Ekya-style baseline) and no-adapt —
// and the per-window metrics behind Figures 8 and 9 are collected.
// Run and RunChaos are one window loop over an in-process or an HTTP
// edge (Wire).
package pipeline

import (
	"cmp"
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
	// Wire, when non-nil, runs the loop over HTTP instead of in process
	// (see Wire).
	Wire *Wire
	Seed uint64
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

// weatherDrift maps a weather condition to its drift operator (clear
// skies have none).
var weatherDrift = map[weather.Condition]imagesim.Corruption{
	weather.Rain: imagesim.Rain,
	weather.Snow: imagesim.Snow,
	weather.Fog:  imagesim.Fog,
}

// Run executes the workload on the dataset with the given pretrained base
// model: the window loop over the weather calendar, in process unless
// cfg.Wire selects the HTTP edge.
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
	if cfg.FaultSeverity <= 0 {
		cfg.FaultSeverity = imagesim.DefaultSeverity
	}
	var e edge
	var err error
	if cfg.Wire == nil {
		e = &localEdge{svc: cloud.NewService(base, cfg.Cloud, cloud.WithObserver(cfg.Observer))}
	} else if e, err = newWire(*cfg.Wire, cfg.Seed, cfg.Cloud, cfg.Observer, base, len(ds.Stream)); err != nil {
		return nil, err
	}
	return cfg.loop(context.Background(), base, cfg.calendar(ds), e)
}

// calendar is Run's schedule: the dataset's stream cut into cfg.Windows
// spans of the weather calendar, each input drifted by its location's
// weather that day and by its device's sensor defect, if it has one.
func (cfg Config) calendar(ds *dataset.Dataset) schedule {
	rng := tensor.NewRand(cfg.Seed, 0xE2E)
	var gen weather.Source = cfg.Weather
	if gen == nil {
		gen = weather.NewGenerator(cfg.Seed)
	}
	slices := ds.WindowSlices(cfg.Windows)
	span := weather.End.AddDate(0, 0, 1).Sub(weather.Start) / time.Duration(cfg.Windows)
	s := schedule{windows: len(slices), window: func(w int) (window, error) {
		win := window{from: weather.Start.Add(time.Duration(w) * span)}
		win.to = win.from.Add(span)
		if cfg.CumulativeAnalysis {
			win.from = weather.Start
		}
		for _, item := range slices[w] {
			cond, err := gen.ConditionAt(item.Location, item.Time.Truncate(24*time.Hour))
			if err != nil {
				return window{}, fmt.Errorf("pipeline: weather: %w", err)
			}
			in := input{StreamItem: item, attrs: map[string]string{driftlog.AttrWeather: string(cond)}}
			if corr, ok := weatherDrift[cond]; ok {
				in.X, in.drift = ds.World.Corrupt(in.X, corr, cfg.Severity, rng), corr
			}
			// Persistent sensor defects, assigned deterministically per device.
			in.faulty = cfg.FaultyDeviceFraction > 0 &&
				float64((hashString(item.DeviceID)^cfg.Seed)%10000)/10000 < cfg.FaultyDeviceFraction
			if in.faulty {
				in.X = ds.World.DeviceFault(in.X, item.DeviceID, cfg.FaultSeverity, rng)
			}
			win.inputs = append(win.inputs, in)
		}
		return win, nil
	}}
	// Quantized mode calibrates activation scales on a slice of the
	// clean training split — the same data every device's base model was
	// trained on, so the fleet shares one calibration batch.
	if cfg.Quantized {
		rows := min(128, ds.Train.X.Rows)
		s.calibration = tensor.New(rows, ds.Train.X.Cols)
		copy(s.calibration.Data, ds.Train.X.Data[:rows*ds.Train.X.Cols])
	}
	return s
}

// input is one inference a schedule asks of the fleet: a stream item
// whose X already carries its drift, and the attributes reported with it.
type input struct {
	dataset.StreamItem
	attrs  map[string]string
	drift  imagesim.Corruption // applied to X; "" for a clean input
	faulty bool                // from a device with a sensor defect
}

// window is one analysis interval: the fleet infers its inputs, then the
// cloud analyzes the drift-log rows in [from, to) at to.
type window struct {
	from, to time.Time
	inputs   []input
}

// schedule is what a caller feeds the window loop: its windows, each
// built only when the loop reaches it (in order), so a run holds one
// window's inputs at a time.
type schedule struct {
	windows     int
	window      func(w int) (window, error)
	calibration *tensor.Matrix // the quantized fleet's activation batch
}

// edge is the loop's link to the cloud: in process (localEdge) or over
// HTTP (wireEdge). analyze closes window w: the cloud takes every report
// so far and analyzes [from, to) at to. close releases the edge after a
// run that ended with err, and returns err or else its own error.
type edge interface {
	report(e driftlog.Entry, sample []float64) error
	analyze(ctx context.Context, w int, from, to time.Time) (analysis, error)
	close(err error) error
}

// analysis is one window's verdict as the fleet receives it.
type analysis struct {
	causes     []string // each rendered by rca.Cause.String
	keys       []string // the same causes' rca.Cause.Key
	versions   []adapt.BNVersion
	rca, adapt time.Duration
}

// loop is the one window loop: the fleet infers each window's inputs
// and, under Nazar, reports them over e; when the window closes the
// cloud analyzes and every device installs what it produced (the
// baselines adapt in place instead). It branches on the strategy only,
// and closes e on every path.
func (cfg Config) loop(ctx context.Context, base *nn.Network, s schedule, e edge) (res *Result, err error) {
	defer func() {
		if err = e.close(err); err != nil {
			res = nil
		}
	}()
	var fleetMetrics *device.Metrics
	if cfg.Observer != nil {
		fleetMetrics = device.NewMetrics(cfg.Observer)
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
			Calibration:  s.calibration,
			ShadowEvery:  cfg.QuantShadowEvery,
			Rng:          tensor.NewRand(cfg.Seed^hashString(id), 0xD),
		}, base)
		devices[id] = d
		return d
	}

	// adapt-all state: one continuously adapted model shared by all.
	currentAll := base
	res = &Result{
		Strategy: cfg.Strategy,
		PerDrift: map[imagesim.Corruption]*metrics.RunningAccuracy{},
	}
	faultySeen := map[string]bool{}
	causeLastSeen := map[string]int{}

	var cumAll, cumDrift metrics.RunningAccuracy
	for w := range s.windows {
		win, err := s.window(w)
		if err != nil {
			return nil, err
		}
		var winAll, winDrift metrics.RunningAccuracy
		detected := 0
		var allSamples [][]float64

		for _, in := range win.inputs {
			if in.faulty && !faultySeen[in.DeviceID] {
				faultySeen[in.DeviceID] = true
				res.FaultyDevices = append(res.FaultyDevices, in.DeviceID)
			}
			inf, entry, sample := getDevice(in.DeviceID, in.Location).Infer(in.Time, in.X, in.attrs)
			correct := inf.Predicted == in.Class
			winAll.Observe(correct)
			cumAll.Observe(correct)
			if cfg.FaultyDeviceFraction > 0 {
				if in.faulty {
					res.FaultyAcc.Observe(correct)
				} else {
					res.HealthyAcc.Observe(correct)
				}
			}
			if in.drift != "" {
				winDrift.Observe(correct)
				cumDrift.Observe(correct)
				ra := res.PerDrift[in.drift]
				if ra == nil {
					ra = &metrics.RunningAccuracy{}
					res.PerDrift[in.drift] = ra
				}
				ra.Observe(correct)
			}
			if inf.Drift {
				detected++
			}
			switch cfg.Strategy {
			case Nazar:
				if err := e.report(entry, sample); err != nil {
					return nil, fmt.Errorf("pipeline: window %d report: %w", w, err)
				}
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

		stats := WindowStats{
			AccAll:      winAll.Value(),
			NAll:        winAll.Total,
			AccDrift:    winDrift.Value(),
			NDrift:      winDrift.Total,
			CumAccAll:   cumAll.Value(),
			CumAccDrift: cumDrift.Value(),
		}
		if winAll.Total > 0 {
			stats.DetectionRate = float64(detected) / float64(winAll.Total)
		}

		// End-of-window adaptation.
		switch cfg.Strategy {
		case Nazar:
			a, err := e.analyze(ctx, w, win.from, win.to)
			if err != nil {
				return nil, fmt.Errorf("pipeline: window %d: %w", w, err)
			}
			stats.RCADuration, stats.AdaptDuration, stats.Causes = a.rca, a.adapt, a.causes
			for _, version := range a.versions {
				for _, d := range devices {
					if err := d.Pool.Install(version, win.to); err != nil {
						return nil, fmt.Errorf("pipeline: deploy: %w", err)
					}
				}
			}
			for _, key := range a.keys {
				causeLastSeen[key] = w
			}
			for _, d := range devices {
				for _, key := range d.Pool.CauseKeys() {
					if last, ok := causeLastSeen[key]; cfg.RetireAfter > 0 && (!ok || w-last >= cfg.RetireAfter) {
						d.Pool.RemoveByCause(key)
					}
				}
			}
		case AdaptAll, AdaptDrifted:
			if len(allSamples) >= 8 {
				pool := tensor.FromRows(allSamples)
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
			stats.VersionCount = max(stats.VersionCount, d.Pool.Len())
		}
		res.Windows = append(res.Windows, stats)
	}
	return res, nil
}

// localEdge is the in-process edge. A window's reports reach the service
// in one batch when the window closes: nothing reads the log before then.
type localEdge struct {
	svc     *cloud.Service
	reports []driftlog.Entry
	uploads [][]float64
}

func (e *localEdge) report(entry driftlog.Entry, sample []float64) error {
	e.reports = append(e.reports, entry)
	e.uploads = append(e.uploads, sample)
	return nil
}

func (e *localEdge) analyze(ctx context.Context, _ int, from, to time.Time) (analysis, error) {
	if len(e.reports) > 0 {
		if err := e.svc.IngestBatchContext(ctx, e.reports, e.uploads); err != nil {
			return analysis{}, fmt.Errorf("ingest: %w", err)
		}
		e.reports, e.uploads = nil, nil // the log keeps the uploads
	}
	wres, err := e.svc.RunWindowContext(ctx, from, to, to)
	if err != nil {
		return analysis{}, err
	}
	a := analysis{versions: wres.Versions, rca: wres.RCADuration, adapt: wres.AdaptDuration}
	for _, c := range wres.Causes {
		a.causes, a.keys = append(a.causes, c.String()), append(a.keys, c.Key())
	}
	return a, nil
}

func (e *localEdge) close(err error) error { return cmp.Or(err, e.svc.Close()) }

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
