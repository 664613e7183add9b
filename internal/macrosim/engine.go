package macrosim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/obs"
	"nazar/internal/registry"
)

// simEpoch anchors simulated time (one tick = one minute) so that
// materialized driftlog entries carry stable timestamps.
var simEpoch = time.Unix(1735689600, 0).UTC() // 2025-01-01T00:00:00Z

// shardCount is the fixed fleet decomposition. Shards — not workers —
// are the unit of determinism: each shard owns a contiguous device
// range and its own accumulator, and shard results merge in shard
// order, so worker-pool width changes only wall-clock time.
const shardCount = 64

// Sink receives the sampled trickle of materialized drift-log entries a
// scenario elects to push over the real wire (sink_every). A
// *transport.Client satisfies it directly.
type Sink interface {
	Report(e driftlog.Entry, sample []float64) error
}

// Engine runs one scenario.
type Engine struct {
	sc      *Scenario
	workers int
	sink    Sink
	reg     *obs.Registry
	rollout *cloud.Rollout

	// Per-device static state, derived once per Run from the seed.
	cohorts []uint8
	fracs   []float64 // sticky fraction ×1, nil without a rollout
	joins   []uint16  // first window, nil without join staggering

	// Per-cohort constants, indexed like sc.Cohorts.
	rateScale []float64
	latencyMS []float64

	m *engineMetrics
}

// Option customizes an Engine.
type Option func(*Engine)

// WithWorkers sets the worker-pool width (default: GOMAXPROCS, capped
// at shardCount). Width never changes results, only wall-clock time.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.workers = n
		}
	}
}

// WithSink routes sampled entries to a real reporting client.
func WithSink(s Sink) Option {
	return func(e *Engine) { e.sink = s }
}

// WithObserver registers nazar_macrosim_* instruments (and, when the
// scenario stages a rollout, the nazar_rollout_* family) on reg.
func WithObserver(reg *obs.Registry) Option {
	return func(e *Engine) { e.reg = reg }
}

// New validates the scenario and prepares an engine. The per-device
// state (a few bytes per device) is allocated lazily in Run.
func New(sc *Scenario, opts ...Option) (*Engine, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{sc: sc, workers: min(runtime.GOMAXPROCS(0), shardCount)}
	for _, opt := range opts {
		opt(e)
	}
	if ro := sc.Rollout; ro != nil {
		ropts := []cloud.RolloutOption{}
		if e.reg != nil {
			ropts = append(ropts, cloud.WithRolloutObserver(e.reg))
		}
		r, err := cloud.NewRollout(cloud.RolloutPlan{
			Candidate:  ro.Candidate,
			Steps:      ro.Steps,
			Ceiling:    ro.Ceiling,
			Guard:      ro.Guard,
			DriftGuard: ro.DriftGuard,
			MinSamples: ro.MinSamples,
		}, ropts...)
		if err != nil {
			return nil, fmt.Errorf("macrosim: rollout plan: %w", err)
		}
		e.rollout = r
	}
	if e.reg != nil {
		e.m = newEngineMetrics(e.reg, sc)
	}
	return e, nil
}

// DeviceID materializes the stable ID of device i — the same string the
// control plane hashes for sticky assignment.
func (e *Engine) DeviceID(i int) string {
	return fmt.Sprintf("%s-%07d", e.sc.Name, i)
}

// spoolCounts is a device's offline spool, kept as aggregate counters
// (the macro level never materializes individual entries): entry counts
// with their correctness/drift classification, split by the version the
// device was assigned at emission time so late-drained entries land in
// the right rollout cohort.
type spoolCounts struct {
	total, correct, drift          uint32 // baseline-assigned entries
	canTotal, canCorrect, canDrift uint32 // candidate-assigned entries
}

func (s *spoolCounts) size() int { return int(s.total + s.canTotal) }

// shardAcc is one shard's per-window accumulator; all fields are exact
// integer counts so merging is order-insensitive arithmetic.
type shardAcc struct {
	emitted, delivered, deliveredLate  int64
	spoolDropped, offlineDevices       int64
	driftFlagged, correct              int64
	cohDelivered, cohCorrect, cohDrift []int64
	canTotal, canCorrect, canDrift     int64
	ctlTotal, ctlCorrect, ctlDrift     int64
	sinkReported, sinkDropped          int64
}

// Run executes the scenario and returns its summary. The summary is a
// pure function of the scenario: same pack + same seed ⇒ byte-identical
// MarshalStable output at any worker count.
func (e *Engine) Run(ctx context.Context) (*Summary, error) {
	sc := e.sc
	e.precompute()
	nCoh := len(sc.Cohorts)
	spools := make([]spoolCounts, sc.Devices)

	shards := shardCount
	if sc.Devices < shards {
		shards = sc.Devices
	}
	per := (sc.Devices + shards - 1) / shards

	sum := &Summary{
		Scenario: sc.Name,
		Seed:     sc.Seed,
		Devices:  sc.Devices,
		Windows:  make([]WindowSummary, 0, sc.Windows),
	}
	for _, c := range sc.Cohorts {
		sum.Cohorts = append(sum.Cohorts, c.Name)
	}
	var totals Totals
	var totCorrect, totDrift int64
	maxPercent := 0.0

	for w := 0; w < sc.Windows; w++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rolloutActive := e.rollout != nil && w >= sc.Rollout.StartWindow
		percent := 0.0
		if rolloutActive {
			percent = e.rollout.Percent()
			if percent > maxPercent {
				maxPercent = percent
			}
		}
		// The diurnal curve depends only on the tick, so compute each
		// tick's base rate once per window, not once per device.
		rates := make([]float64, sc.TicksPerWindow)
		for t := range rates {
			rates[t] = sc.Diurnal.Rate(w*sc.TicksPerWindow + t)
		}
		events := activeEvents(sc, w)

		accs := make([]*shardAcc, shards)
		jobs := make(chan int)
		var wg sync.WaitGroup
		for i := 0; i < e.workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := range jobs {
					lo := s * per
					hi := min(lo+per, sc.Devices)
					accs[s] = e.runShard(w, lo, hi, percent, rates, events, spools, nCoh)
				}
			}()
		}
		for s := 0; s < shards; s++ {
			jobs <- s
		}
		close(jobs)
		wg.Wait()

		// Merge in shard order: pure integer addition, so the order
		// only matters for reproducibility of the code path, not the
		// values — but fixed order keeps even that invariant.
		win := shardAcc{
			cohDelivered: make([]int64, nCoh),
			cohCorrect:   make([]int64, nCoh),
			cohDrift:     make([]int64, nCoh),
		}
		for _, a := range accs {
			win.emitted += a.emitted
			win.delivered += a.delivered
			win.deliveredLate += a.deliveredLate
			win.spoolDropped += a.spoolDropped
			win.offlineDevices += a.offlineDevices
			win.driftFlagged += a.driftFlagged
			win.correct += a.correct
			win.canTotal += a.canTotal
			win.canCorrect += a.canCorrect
			win.canDrift += a.canDrift
			win.ctlTotal += a.ctlTotal
			win.ctlCorrect += a.ctlCorrect
			win.ctlDrift += a.ctlDrift
			win.sinkReported += a.sinkReported
			win.sinkDropped += a.sinkDropped
			for c := 0; c < nCoh; c++ {
				win.cohDelivered[c] += a.cohDelivered[c]
				win.cohCorrect[c] += a.cohCorrect[c]
				win.cohDrift[c] += a.cohDrift[c]
			}
		}

		ws := WindowSummary{
			Window:         w,
			Emitted:        win.emitted,
			Delivered:      win.delivered,
			DeliveredLate:  win.deliveredLate,
			SpoolDropped:   win.spoolDropped,
			OfflineDevices: win.offlineDevices,
			DriftFlagged:   win.driftFlagged,
			Accuracy:       ratio(win.correct, win.delivered),
			DriftRate:      ratio(win.driftFlagged, win.delivered),
		}
		var latNum float64
		for c := 0; c < nCoh; c++ {
			ws.Cohorts = append(ws.Cohorts, CohortWindow{
				Name:      sc.Cohorts[c].Name,
				Delivered: win.cohDelivered[c],
				Accuracy:  ratio(win.cohCorrect[c], win.cohDelivered[c]),
				DriftRate: ratio(win.cohDrift[c], win.cohDelivered[c]),
			})
			latNum += float64(win.cohDelivered[c]) * e.latencyMS[c]
		}
		if win.delivered > 0 {
			ws.AvgUploadLatencyMS = round6(latNum / float64(win.delivered))
		}

		if rolloutActive {
			canary := cloud.CohortStats{Total: win.canTotal, Correct: win.canCorrect, DriftFlagged: win.canDrift}
			control := cloud.CohortStats{Total: win.ctlTotal, Correct: win.ctlCorrect, DriftFlagged: win.ctlDrift}
			decision := e.rollout.Observe(canary, control)
			after := e.rollout.Percent()
			if after > maxPercent {
				maxPercent = after
			}
			ws.Rollout = &RolloutWindow{
				PercentBefore:   round6(percent),
				PercentAfter:    round6(after),
				CanaryDelivered: win.canTotal,
				CanaryAccuracy:  round6(canary.Accuracy()),
				ControlAccuracy: round6(control.Accuracy()),
				Decision:        string(decision),
				State:           string(e.rollout.State()),
			}
		}
		sum.Windows = append(sum.Windows, ws)

		totals.Emitted += win.emitted
		totals.Delivered += win.delivered
		totals.DeliveredLate += win.deliveredLate
		totals.SpoolDropped += win.spoolDropped
		totals.SinkReported += win.sinkReported
		totals.SinkDropped += win.sinkDropped
		totCorrect += win.correct
		totDrift += win.driftFlagged
		if e.m != nil {
			e.m.observe(&win)
		}
	}

	totals.Accuracy = ratio(totCorrect, totals.Delivered)
	totals.DriftRate = ratio(totDrift, totals.Delivered)
	sum.Totals = totals
	if e.rollout != nil {
		sum.Rollout = rolloutSummaryOf(e.rollout, maxPercent)
	}
	return sum, nil
}

// precompute derives the per-device static state: cohort membership,
// sticky rollout fraction, and join window.
func (e *Engine) precompute() {
	sc := e.sc
	if e.cohorts != nil {
		return
	}
	// Normalize cohort weights into cumulative thresholds.
	totalW := 0.0
	for _, c := range sc.Cohorts {
		totalW += c.Weight
	}
	thresholds := make([]float64, len(sc.Cohorts))
	cum := 0.0
	for i, c := range sc.Cohorts {
		cum += c.Weight / totalW
		thresholds[i] = cum
		p := Profiles[c.Hardware]
		e.rateScale = append(e.rateScale, p.RateScale)
		e.latencyMS = append(e.latencyMS, p.UploadLatencyMS)
	}
	e.cohorts = make([]uint8, sc.Devices)
	for i := range e.cohorts {
		u := unitFloat(hash2(sc.Seed, uint64(i), streamCohort))
		c := 0
		for c < len(thresholds)-1 && u >= thresholds[c] {
			c++
		}
		e.cohorts[i] = uint8(c)
	}
	if sc.Rollout != nil {
		salt := sc.Rollout.Candidate
		e.fracs = make([]float64, sc.Devices)
		for i := range e.fracs {
			e.fracs[i] = registry.StickyFraction(e.DeviceID(i), salt)
		}
	}
	if sc.Churn.JoinWindows > 0 {
		e.joins = make([]uint16, sc.Devices)
		for i := range e.joins {
			e.joins[i] = uint16(joinWindow(sc, uint64(i)))
		}
	}
}

// activeEvents returns the drift events covering window w, in file
// order (the first event that claims a device wins).
func activeEvents(sc *Scenario, w int) []int {
	var idx []int
	for i, ev := range sc.Drift {
		if w >= ev.FromWindow && w <= ev.ToWindow {
			idx = append(idx, i)
		}
	}
	return idx
}

// runShard simulates devices [lo,hi) through window w.
func (e *Engine) runShard(w, lo, hi int, percent float64, rates []float64, events []int, spools []spoolCounts, nCoh int) *shardAcc {
	sc := e.sc
	acc := &shardAcc{
		cohDelivered: make([]int64, nCoh),
		cohCorrect:   make([]int64, nCoh),
		cohDrift:     make([]int64, nCoh),
	}
	for i := lo; i < hi; i++ {
		dev := uint64(i)
		if e.joins != nil && w < int(e.joins[i]) {
			continue
		}
		coh := int(e.cohorts[i])
		spec := &sc.Cohorts[coh]
		off := offlineTicks(sc, dev, w)
		if off > 0 {
			acc.offlineDevices++
		}
		canary := false
		if percent > 0 && e.fracs != nil {
			canary = registry.InRamp(e.fracs[i], percent)
		}
		// Resolve the drift event touching this device, if any.
		accuracy := spec.BaseAccuracy
		detect := spec.FalsePositiveRate
		weather := "clear"
		for _, j := range events {
			ev := &sc.Drift[j]
			if unitFloat(hash2(sc.Seed, dev, streamEventBase+uint64(j))) < ev.Fraction {
				accuracy -= ev.AccuracyDrop
				detect = ev.DetectRate
				weather = ev.Corruption
				break
			}
		}
		if canary {
			accuracy += sc.Rollout.AccuracyDelta
		}
		accuracy = clamp01(accuracy)

		sp := &spools[i]
		scale := e.rateScale[coh]
		for t := 0; t < sc.TicksPerWindow; t++ {
			online := t >= off
			if online && sp.size() > 0 {
				e.drain(acc, sp, coh)
			}
			p := rates[t] * scale
			if p > 1 {
				p = 1
			}
			if unitFloat(hash4(sc.Seed, dev, w, t, streamEmit)) >= p {
				continue
			}
			acc.emitted++
			correct := unitFloat(hash4(sc.Seed, dev, w, t, streamCorrect)) < accuracy
			drifted := unitFloat(hash4(sc.Seed, dev, w, t, streamDrift)) < detect
			if !online {
				if sp.size() >= sc.Churn.SpoolCap {
					acc.spoolDropped++
					continue
				}
				if canary {
					sp.canTotal++
					if correct {
						sp.canCorrect++
					}
					if drifted {
						sp.canDrift++
					}
				} else {
					sp.total++
					if correct {
						sp.correct++
					}
					if drifted {
						sp.drift++
					}
				}
				continue
			}
			acc.delivered++
			acc.cohDelivered[coh]++
			if correct {
				acc.correct++
				acc.cohCorrect[coh]++
			}
			if drifted {
				acc.driftFlagged++
				acc.cohDrift[coh]++
			}
			if e.rollout != nil {
				if canary {
					acc.canTotal++
					if correct {
						acc.canCorrect++
					}
					if drifted {
						acc.canDrift++
					}
				} else {
					acc.ctlTotal++
					if correct {
						acc.ctlCorrect++
					}
					if drifted {
						acc.ctlDrift++
					}
				}
			}
			if e.sink != nil && sc.SinkEvery > 0 && acc.delivered%int64(sc.SinkEvery) == 0 {
				e.report(acc, i, coh, w, t, canary, drifted, weather)
			}
		}
	}
	return acc
}

// drain empties a device's offline spool into the current window as
// late deliveries, preserving each entry's emission-time version
// assignment and detector verdict.
func (e *Engine) drain(acc *shardAcc, sp *spoolCounts, coh int) {
	n := int64(sp.total) + int64(sp.canTotal)
	c := int64(sp.correct) + int64(sp.canCorrect)
	d := int64(sp.drift) + int64(sp.canDrift)
	acc.delivered += n
	acc.deliveredLate += n
	acc.correct += c
	acc.driftFlagged += d
	acc.cohDelivered[coh] += n
	acc.cohCorrect[coh] += c
	acc.cohDrift[coh] += d
	if e.rollout != nil {
		acc.canTotal += int64(sp.canTotal)
		acc.canCorrect += int64(sp.canCorrect)
		acc.canDrift += int64(sp.canDrift)
		acc.ctlTotal += int64(sp.total)
		acc.ctlCorrect += int64(sp.correct)
		acc.ctlDrift += int64(sp.drift)
	}
	*sp = spoolCounts{}
}

// report materializes one sampled entry and pushes it through the sink.
func (e *Engine) report(acc *shardAcc, i, coh, w, t int, canary, drifted bool, weather string) {
	model := "base"
	if canary {
		model = e.sc.Rollout.Candidate
	}
	entry := driftlog.Entry{
		Time: simEpoch.Add(time.Duration(w*e.sc.TicksPerWindow+t) * time.Minute),
		Attrs: map[string]string{
			driftlog.AttrDevice:  e.DeviceID(i),
			driftlog.AttrWeather: weather,
			driftlog.AttrModel:   model,
			"cohort":             e.sc.Cohorts[coh].Name,
		},
		Drift:    drifted,
		SampleID: -1,
	}
	for hi := range e.sc.HighCard {
		hc := &e.sc.HighCard[hi]
		entry.Attrs[hc.Attr] = hc.Value(e.sc.Seed, uint64(i), w, t, hi)
	}
	if err := e.sink.Report(entry, nil); err != nil {
		acc.sinkDropped++
		return
	}
	acc.sinkReported++
}

// engineMetrics is the nazar_macrosim_* instrument set.
type engineMetrics struct {
	emitted, delivered, late, dropped, windows *obs.Counter
}

func newEngineMetrics(reg *obs.Registry, sc *Scenario) *engineMetrics {
	lbl := obs.L("scenario", sc.Name)
	reg.GaugeFunc("nazar_macrosim_devices", "Simulated fleet size.",
		func() float64 { return float64(sc.Devices) }, lbl)
	return &engineMetrics{
		emitted:   reg.Counter("nazar_macrosim_emitted_total", "Inferences the simulated fleet produced.", lbl),
		delivered: reg.Counter("nazar_macrosim_delivered_total", "Entries delivered to the cloud.", lbl),
		late:      reg.Counter("nazar_macrosim_delivered_late_total", "Entries drained from offline spools.", lbl),
		dropped:   reg.Counter("nazar_macrosim_spool_dropped_total", "Entries lost to spool overflow.", lbl),
		windows:   reg.Counter("nazar_macrosim_windows_total", "Monitoring windows simulated.", lbl),
	}
}

func (m *engineMetrics) observe(win *shardAcc) {
	m.emitted.Add(uint64(win.emitted))
	m.delivered.Add(uint64(win.delivered))
	m.late.Add(uint64(win.deliveredLate))
	m.dropped.Add(uint64(win.spoolDropped))
	m.windows.Add(1)
}
