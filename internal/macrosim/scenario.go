// Package macrosim is the macro-scale fleet simulator: a deterministic
// load generator driving 100k–1M lightweight simulated devices with
// heterogeneous hardware profiles, diurnal traffic curves and device
// churn (join/leave with offline spools that drain late), fed by
// declarative scenario-pack files and wired into the staged-rollout
// control plane (cloud.Rollout).
//
// The point is regressibility: every future performance or robustness
// PR can replay a checked-in scenario against the same seed and compare
// byte-identical fleet summaries, the way elastic-package replays
// checked-in sample corpora through its pipelines. Devices here are a
// few bytes of state each — no neural network runs per inference —
// because what the macro level exercises is the *system* around the
// models: ingest volume shaped by diurnal curves, delivery under churn,
// canary cohort statistics, and the rollout state machine's reaction to
// a regressing version.
//
// Determinism contract: a scenario's summary is a pure function of the
// scenario (including its seed). The fleet is partitioned into fixed
// shards whose per-device draws come from counter-based hashing, so the
// worker-pool width changes wall-clock time only — summaries are
// byte-identical at any width (pinned at widths 1 and 8 by test).
package macrosim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"nazar/internal/imagesim"
)

// Limits keep scenario files from describing runs that cannot finish
// (and keep the fuzzer from handing the engine absurd allocations).
const (
	MaxDevices        = 2_000_000
	MaxWindows        = 64
	MaxTicksPerWindow = 512
	maxCohorts        = 32
	maxDriftEvents    = 64
	maxRampSteps      = 32
	maxHighCard       = 4
	maxHighCardValues = 1 << 20
)

// ScenarioError is the typed parse/validation error for scenario packs.
// Field names the offending field (JSON path-ish) when known.
type ScenarioError struct {
	Path  string // source file, when loaded from disk
	Field string
	Msg   string
}

func (e *ScenarioError) Error() string {
	var b strings.Builder
	b.WriteString("macrosim: scenario")
	if e.Path != "" {
		b.WriteString(" " + e.Path)
	}
	if e.Field != "" {
		b.WriteString(": field " + e.Field)
	}
	b.WriteString(": " + e.Msg)
	return b.String()
}

func scErr(field, format string, args ...any) *ScenarioError {
	return &ScenarioError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// HardwareProfile is one device class: how much traffic it generates
// relative to the mid tier and how long its uploads take.
type HardwareProfile struct {
	// RateScale multiplies the diurnal emission rate.
	RateScale float64
	// UploadLatencyMS is the device's nominal upload latency (reported
	// on the engine's latency metrics; it does not reorder delivery).
	UploadLatencyMS float64
}

// Profiles are the built-in hardware tiers scenario cohorts reference.
var Profiles = map[string]HardwareProfile{
	"flagship": {RateScale: 1.4, UploadLatencyMS: 18},
	"mid":      {RateScale: 1.0, UploadLatencyMS: 45},
	"budget":   {RateScale: 0.6, UploadLatencyMS: 110},
	"iot":      {RateScale: 0.2, UploadLatencyMS: 260},
}

// CohortSpec is one slice of the fleet mix.
type CohortSpec struct {
	Name string `json:"name"`
	// Weight is the cohort's share of the fleet (normalized over all
	// cohorts).
	Weight float64 `json:"weight"`
	// Hardware names a built-in profile (see Profiles).
	Hardware string `json:"hardware"`
	// BaseAccuracy is the cohort's clean accuracy under the baseline
	// version.
	BaseAccuracy float64 `json:"base_accuracy"`
	// FalsePositiveRate is the on-device detector's drift-flag rate on
	// clean inputs.
	FalsePositiveRate float64 `json:"false_positive_rate"`
}

// DiurnalSpec shapes per-tick traffic as a cosine day curve.
type DiurnalSpec struct {
	// BaseRate is the mean per-device emission probability per tick
	// (before the hardware RateScale). Default 0.5.
	BaseRate float64 `json:"base_rate"`
	// Amplitude in [0,1] scales the swing around BaseRate; 0 is flat.
	Amplitude float64 `json:"amplitude"`
	// Period is the curve's cycle length in ticks (default: the
	// scenario's ticks_per_window — one day per window).
	Period int `json:"period,omitempty"`
	// PeakTick is the tick (mod Period) of maximum traffic.
	PeakTick int `json:"peak_tick"`
}

// ChurnSpec models join/leave churn and the offline spool.
type ChurnSpec struct {
	// Rate is the per-window probability that a device goes offline.
	Rate float64 `json:"rate"`
	// OfflineTicks is how many ticks of the window an offline device
	// stays unreachable before rejoining and draining its spool. 0 (the
	// default) means the whole window — the spool drains in a later
	// window.
	OfflineTicks int `json:"offline_ticks"`
	// SpoolCap bounds the per-device offline spool; overflow entries
	// are dropped (and counted). Default 64.
	SpoolCap int `json:"spool_cap,omitempty"`
	// JoinWindows staggers fleet join: device d joins at window
	// floor(frac(d)·JoinWindows). 0 means everyone is present from
	// window 0.
	JoinWindows int `json:"join_windows,omitempty"`
}

// DriftEvent applies a corruption to a slice of the fleet over a window
// range — the scenario-pack hook into the imagesim corruption
// generators.
type DriftEvent struct {
	// Corruption must name an imagesim corruption (e.g. "snow", "fog",
	// "gaussian_noise"); it becomes the affected entries' weather
	// attribute.
	Corruption string `json:"corruption"`
	// FromWindow..ToWindow (inclusive) is when the event is active.
	FromWindow int `json:"from_window"`
	ToWindow   int `json:"to_window"`
	// Fraction of the fleet affected (by sticky device hash).
	Fraction float64 `json:"fraction"`
	// AccuracyDrop is the accuracy lost on affected devices.
	AccuracyDrop float64 `json:"accuracy_drop"`
	// DetectRate is the on-device detector's true-positive rate on
	// affected inputs.
	DetectRate float64 `json:"detect_rate"`
}

// RolloutSpec stages a candidate version rollout inside the scenario.
type RolloutSpec struct {
	// Candidate is the version ID being rolled out.
	Candidate string `json:"candidate"`
	// AccuracyDelta is the candidate's true accuracy change versus the
	// baseline (negative = a regressed build the guards should catch).
	AccuracyDelta float64 `json:"accuracy_delta"`
	// Steps / Ceiling / Guard / DriftGuard / MinSamples mirror
	// cloud.RolloutPlan.
	Steps      []float64 `json:"steps"`
	Ceiling    float64   `json:"ceiling,omitempty"`
	Guard      float64   `json:"guard"`
	DriftGuard float64   `json:"drift_guard,omitempty"`
	MinSamples int       `json:"min_samples"`
	// StartWindow delays the rollout (assignment is 0% before it).
	StartWindow int `json:"start_window,omitempty"`
}

// HighCardSpec attaches one synthetic high-cardinality attribute (a
// fine-grained build ID, app version, firmware string, …) to every
// entry the sink materializes. Fleets carry such attributes in
// practice, and they are exactly what pushes the drift log's per-value
// bitset index past its memory budget — the spec exists to exercise
// the tier-up (such an attribute drops its bitmaps) end-to-end through
// `nazar-sim -scenario`.
type HighCardSpec struct {
	// Attr is the attribute name; it must not collide with the
	// built-in attributes (device, weather, model, location, cohort).
	Attr string `json:"attr"`
	// Cardinality is the number of distinct values the attribute can
	// take across the fleet.
	Cardinality int `json:"cardinality"`
	// HotFraction in [0,1] routes that share of draws to the HotValues
	// lowest-numbered values, mimicking the real skew where a handful
	// of releases dominate and a long tail of stragglers remains.
	HotFraction float64 `json:"hot_fraction,omitempty"`
	// HotValues is the size of the hot set (defaults to 16, clamped to
	// Cardinality).
	HotValues int `json:"hot_values,omitempty"`
}

// Value returns the deterministic attribute value for one delivered
// entry: a per-tick hash picks hot set vs long tail, an independent
// re-mix picks the value inside the chosen range.
func (hc *HighCardSpec) Value(seed, dev uint64, w, t int, idx int) string {
	h := hash4(seed, dev, w, t, streamHighCardBase+uint64(idx))
	hot := hc.HotValues
	if hot > hc.Cardinality {
		hot = hc.Cardinality
	}
	v := 0
	if hot > 0 && unitFloat(h) < hc.HotFraction {
		v = int(mix64(h^golden64) % uint64(hot))
	} else {
		v = int(mix64(h+golden64) % uint64(hc.Cardinality))
	}
	return hc.Attr + "-" + strconv.Itoa(v)
}

// Scenario is one declarative scenario pack.
type Scenario struct {
	Name           string       `json:"name"`
	Seed           uint64       `json:"seed"`
	Devices        int          `json:"devices"`
	Windows        int          `json:"windows"`
	TicksPerWindow int          `json:"ticks_per_window"`
	Cohorts        []CohortSpec `json:"cohorts"`
	Diurnal        DiurnalSpec  `json:"diurnal"`
	Churn          ChurnSpec    `json:"churn"`
	Drift          []DriftEvent `json:"drift,omitempty"`
	Rollout        *RolloutSpec `json:"rollout,omitempty"`
	// SinkEvery, when positive, materializes every Nth delivered entry
	// as a driftlog.Entry and reports it through the engine's Sink
	// (e.g. a transport.Client) — the bridge from macro-scale counting
	// to the real wire.
	SinkEvery int `json:"sink_every,omitempty"`
	// HighCard attaches synthetic high-cardinality attributes to the
	// entries SinkEvery materializes (no effect without a sink).
	HighCard []HighCardSpec `json:"high_cardinality,omitempty"`
}

// knownCorruption reports whether name is an imagesim corruption.
func knownCorruption(name string) bool {
	for _, c := range imagesim.AllCorruptions {
		if string(c) == name {
			return true
		}
	}
	return false
}

// ParseScenario decodes and validates a scenario pack. Unknown fields,
// trailing data and out-of-range values all fail with a *ScenarioError.
func ParseScenario(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, &ScenarioError{Msg: err.Error()}
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, &ScenarioError{Msg: "trailing data after scenario object"}
	}
	sc.applyDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// LoadScenario reads and parses a scenario-pack file.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("macrosim: %w", err)
	}
	sc, err := ParseScenario(data)
	if err != nil {
		var se *ScenarioError
		if ok := errorsAs(err, &se); ok {
			se.Path = path
			return nil, se
		}
		return nil, err
	}
	return sc, nil
}

// errorsAs avoids importing errors for one call site (and keeps the
// typed-path rewrite explicit).
func errorsAs(err error, target **ScenarioError) bool {
	se, ok := err.(*ScenarioError)
	if ok {
		*target = se
	}
	return ok
}

func (sc *Scenario) applyDefaults() {
	if sc.Diurnal.BaseRate == 0 {
		sc.Diurnal.BaseRate = 0.5
	}
	if sc.Diurnal.Period == 0 {
		sc.Diurnal.Period = sc.TicksPerWindow
	}
	if sc.Churn.SpoolCap == 0 {
		sc.Churn.SpoolCap = 64
	}
	for i := range sc.HighCard {
		if sc.HighCard[i].HotValues == 0 && sc.HighCard[i].HotFraction > 0 {
			sc.HighCard[i].HotValues = 16
		}
	}
}

// Validate checks every field range; the first violation is returned as
// a *ScenarioError naming the field.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return scErr("name", "empty")
	}
	if sc.Devices <= 0 || sc.Devices > MaxDevices {
		return scErr("devices", "%d out of range [1,%d]", sc.Devices, MaxDevices)
	}
	if sc.Windows <= 0 || sc.Windows > MaxWindows {
		return scErr("windows", "%d out of range [1,%d]", sc.Windows, MaxWindows)
	}
	if sc.TicksPerWindow <= 0 || sc.TicksPerWindow > MaxTicksPerWindow {
		return scErr("ticks_per_window", "%d out of range [1,%d]", sc.TicksPerWindow, MaxTicksPerWindow)
	}
	if len(sc.Cohorts) == 0 {
		return scErr("cohorts", "at least one cohort required")
	}
	if len(sc.Cohorts) > maxCohorts {
		return scErr("cohorts", "%d cohorts exceed the limit %d", len(sc.Cohorts), maxCohorts)
	}
	seen := map[string]bool{}
	for i, c := range sc.Cohorts {
		f := func(name string) string { return "cohorts[" + strconv.Itoa(i) + "]." + name }
		if c.Name == "" {
			return scErr(f("name"), "empty")
		}
		if seen[c.Name] {
			return scErr(f("name"), "duplicate cohort %q", c.Name)
		}
		seen[c.Name] = true
		if c.Weight <= 0 {
			return scErr(f("weight"), "%v must be positive", c.Weight)
		}
		if _, ok := Profiles[c.Hardware]; !ok {
			return scErr(f("hardware"), "unknown profile %q", c.Hardware)
		}
		if c.BaseAccuracy <= 0 || c.BaseAccuracy > 1 {
			return scErr(f("base_accuracy"), "%v out of (0,1]", c.BaseAccuracy)
		}
		if c.FalsePositiveRate < 0 || c.FalsePositiveRate > 1 {
			return scErr(f("false_positive_rate"), "%v out of [0,1]", c.FalsePositiveRate)
		}
	}
	d := sc.Diurnal
	if d.BaseRate < 0 || d.BaseRate > 1 {
		return scErr("diurnal.base_rate", "%v out of [0,1]", d.BaseRate)
	}
	if d.Amplitude < 0 || d.Amplitude > 1 {
		return scErr("diurnal.amplitude", "%v out of [0,1]", d.Amplitude)
	}
	if d.Period < 1 {
		return scErr("diurnal.period", "%d must be positive", d.Period)
	}
	if d.PeakTick < 0 {
		return scErr("diurnal.peak_tick", "%d must be non-negative", d.PeakTick)
	}
	ch := sc.Churn
	if ch.Rate < 0 || ch.Rate > 1 {
		return scErr("churn.rate", "%v out of [0,1]", ch.Rate)
	}
	if ch.OfflineTicks < 0 || ch.OfflineTicks > sc.TicksPerWindow {
		return scErr("churn.offline_ticks", "%d out of [0,%d]", ch.OfflineTicks, sc.TicksPerWindow)
	}
	if ch.SpoolCap < 0 {
		return scErr("churn.spool_cap", "%d must be non-negative", ch.SpoolCap)
	}
	if ch.JoinWindows < 0 || ch.JoinWindows > sc.Windows {
		return scErr("churn.join_windows", "%d out of [0,%d]", ch.JoinWindows, sc.Windows)
	}
	if len(sc.Drift) > maxDriftEvents {
		return scErr("drift", "%d events exceed the limit %d", len(sc.Drift), maxDriftEvents)
	}
	for i, ev := range sc.Drift {
		f := func(name string) string { return "drift[" + strconv.Itoa(i) + "]." + name }
		if !knownCorruption(ev.Corruption) {
			return scErr(f("corruption"), "unknown corruption %q", ev.Corruption)
		}
		if ev.FromWindow < 0 || ev.FromWindow >= sc.Windows {
			return scErr(f("from_window"), "%d out of [0,%d)", ev.FromWindow, sc.Windows)
		}
		if ev.ToWindow < ev.FromWindow || ev.ToWindow >= sc.Windows {
			return scErr(f("to_window"), "%d out of [%d,%d)", ev.ToWindow, ev.FromWindow, sc.Windows)
		}
		if ev.Fraction < 0 || ev.Fraction > 1 {
			return scErr(f("fraction"), "%v out of [0,1]", ev.Fraction)
		}
		if ev.AccuracyDrop < 0 || ev.AccuracyDrop > 1 {
			return scErr(f("accuracy_drop"), "%v out of [0,1]", ev.AccuracyDrop)
		}
		if ev.DetectRate < 0 || ev.DetectRate > 1 {
			return scErr(f("detect_rate"), "%v out of [0,1]", ev.DetectRate)
		}
	}
	if ro := sc.Rollout; ro != nil {
		if ro.Candidate == "" {
			return scErr("rollout.candidate", "empty")
		}
		if len(ro.Steps) == 0 || len(ro.Steps) > maxRampSteps {
			return scErr("rollout.steps", "%d steps out of [1,%d]", len(ro.Steps), maxRampSteps)
		}
		prev := 0.0
		for i, s := range ro.Steps {
			if s <= prev || s > 100 {
				return scErr("rollout.steps", "step %d (%v%%) not ascending in (0,100]", i, s)
			}
			prev = s
		}
		if ro.Ceiling < 0 || (ro.Ceiling > 0 && ro.Ceiling < ro.Steps[0]) {
			return scErr("rollout.ceiling", "%v%% below canary step %v%%", ro.Ceiling, ro.Steps[0])
		}
		if ro.Guard < 0 || ro.DriftGuard < 0 {
			return scErr("rollout.guard", "negative guard")
		}
		if ro.AccuracyDelta < -1 || ro.AccuracyDelta > 1 {
			return scErr("rollout.accuracy_delta", "%v out of [-1,1]", ro.AccuracyDelta)
		}
		if ro.MinSamples < 0 {
			return scErr("rollout.min_samples", "%d must be non-negative", ro.MinSamples)
		}
		if ro.StartWindow < 0 || ro.StartWindow >= sc.Windows {
			return scErr("rollout.start_window", "%d out of [0,%d)", ro.StartWindow, sc.Windows)
		}
	}
	if sc.SinkEvery < 0 {
		return scErr("sink_every", "%d must be non-negative", sc.SinkEvery)
	}
	if len(sc.HighCard) > maxHighCard {
		return scErr("high_cardinality", "%d specs exceed the limit %d", len(sc.HighCard), maxHighCard)
	}
	reserved := map[string]bool{"device": true, "location": true, "weather": true, "model": true, "cohort": true}
	for i := range sc.HighCard {
		hc := &sc.HighCard[i]
		f := func(name string) string { return fmt.Sprintf("high_cardinality[%d].%s", i, name) }
		if hc.Attr == "" {
			return scErr(f("attr"), "must be non-empty")
		}
		if reserved[hc.Attr] {
			return scErr(f("attr"), "%q collides with a built-in attribute", hc.Attr)
		}
		if hc.Cardinality < 2 || hc.Cardinality > maxHighCardValues {
			return scErr(f("cardinality"), "%d out of range [2,%d]", hc.Cardinality, maxHighCardValues)
		}
		if hc.HotFraction < 0 || hc.HotFraction > 1 {
			return scErr(f("hot_fraction"), "%v out of [0,1]", hc.HotFraction)
		}
		if hc.HotValues < 0 {
			return scErr(f("hot_values"), "%d must be non-negative", hc.HotValues)
		}
		reserved[hc.Attr] = true
	}
	return nil
}

// ParseRolloutSpec parses the compact -rollout flag syntax:
//
//	candidate=v2,delta=-0.1,steps=1:5:25:100,guard=0.03,min=200[,ceiling=50][,drift-guard=0.05][,start=1]
func ParseRolloutSpec(s string) (*RolloutSpec, error) {
	ro := &RolloutSpec{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, scErr("rollout", "bad clause %q: want key=value", part)
		}
		var err error
		switch k {
		case "candidate":
			ro.Candidate = v
		case "delta":
			ro.AccuracyDelta, err = strconv.ParseFloat(v, 64)
		case "steps":
			for _, sv := range strings.Split(v, ":") {
				f, perr := strconv.ParseFloat(sv, 64)
				if perr != nil {
					return nil, scErr("rollout.steps", "bad step %q", sv)
				}
				ro.Steps = append(ro.Steps, f)
			}
		case "guard":
			ro.Guard, err = strconv.ParseFloat(v, 64)
		case "drift-guard":
			ro.DriftGuard, err = strconv.ParseFloat(v, 64)
		case "ceiling":
			ro.Ceiling, err = strconv.ParseFloat(v, 64)
		case "min":
			ro.MinSamples, err = strconv.Atoi(v)
		case "start":
			ro.StartWindow, err = strconv.Atoi(v)
		default:
			return nil, scErr("rollout", "unknown key %q", k)
		}
		if err != nil {
			return nil, scErr("rollout."+k, "bad value %q: %v", v, err)
		}
	}
	if ro.Candidate == "" {
		return nil, scErr("rollout.candidate", "empty")
	}
	if len(ro.Steps) == 0 {
		return nil, scErr("rollout.steps", "empty")
	}
	return ro, nil
}
