package cloud

// Staged rollout control plane: version deployment as a guarded state
// machine instead of an unconditional fleet-wide install. A candidate
// version starts on a canary cohort (the first ramp step), advances
// through a percentage ramp only while its cohort's observed accuracy
// and drift rate keep up with the control cohort, and is rolled back
// automatically the moment it regresses past the configured guards.
// Device→version assignment is sticky (registry.InRamp of the device's
// registry.StickyFraction under the plan's salt, at the controller's
// Percent): a pure function of (device ID, salt, percent), so it survives
// restarts, replicas and any worker-pool partitioning of the fleet,
// and ramping p%→q% reassigns only ~(q−p)% of devices.

import (
	"fmt"
	"sort"
	"sync"

	"nazar/internal/obs"
)

// RolloutState is the control plane's lifecycle state.
type RolloutState string

const (
	// RolloutCanary: the candidate serves only the first ramp step.
	RolloutCanary RolloutState = "canary"
	// RolloutRamping: at least one guard evaluation passed and the ramp
	// has advanced beyond the canary step.
	RolloutRamping RolloutState = "ramping"
	// RolloutComplete: the final step (or the ceiling) was reached with
	// guards passing; the rollout holds at its final percentage.
	RolloutComplete RolloutState = "complete"
	// RolloutRolledBack: a guard tripped; the candidate serves nobody.
	RolloutRolledBack RolloutState = "rolled-back"
)

// RolloutDecision is the outcome of one guard evaluation.
type RolloutDecision string

const (
	// DecisionHold: not enough evidence yet (cohorts under MinSamples).
	DecisionHold RolloutDecision = "hold"
	// DecisionAdvance: guards passed; the ramp moved to the next step.
	DecisionAdvance RolloutDecision = "advance"
	// DecisionComplete: guards passed on the final step (or at the
	// ceiling); the rollout is done.
	DecisionComplete RolloutDecision = "complete"
	// DecisionRollback: a guard tripped; the candidate was withdrawn.
	DecisionRollback RolloutDecision = "rollback"
	// DecisionNone: the rollout was already terminal when observed.
	DecisionNone RolloutDecision = "none"
)

// rolloutDecisions enumerates every decision for metric pre-registration.
var rolloutDecisions = []RolloutDecision{
	DecisionHold, DecisionAdvance, DecisionComplete, DecisionRollback, DecisionNone,
}

// RolloutPlan declares a staged rollout.
type RolloutPlan struct {
	// Candidate is the version being rolled out; Baseline is what every
	// unassigned (control) device serves.
	Candidate string
	Baseline  string
	// Steps is the ascending percentage ramp schedule, e.g. [1,5,25,100].
	// The first step is the canary cohort size.
	Steps []float64
	// Ceiling, when positive, hard-caps the ramp percentage regardless
	// of the schedule (the blast-radius bound the chaos test asserts a
	// regressed canary never escapes).
	Ceiling float64
	// Guard is the maximum tolerated accuracy regression of the canary
	// cohort versus the control cohort (absolute, e.g. 0.03 = 3 points).
	Guard float64
	// DriftGuard, when positive, additionally trips rollback when the
	// canary cohort's drift-flag rate exceeds the control cohort's by
	// more than this much (the MSP-side regression signal).
	DriftGuard float64
	// MinSamples is the evidence floor: both cohorts must contribute at
	// least this many observations before any advance/rollback verdict.
	MinSamples int
	// Salt keys the sticky assignment hash; it defaults to Candidate so
	// the fleet partition is reproducible from the plan alone.
	Salt string
}

func (p RolloutPlan) withDefaults() RolloutPlan {
	if p.Baseline == "" {
		p.Baseline = "base"
	}
	if p.Salt == "" {
		p.Salt = p.Candidate
	}
	if p.MinSamples <= 0 {
		p.MinSamples = 1
	}
	return p
}

func (p RolloutPlan) validate() error {
	if p.Candidate == "" {
		return fmt.Errorf("cloud: rollout plan: empty candidate")
	}
	if len(p.Steps) == 0 {
		return fmt.Errorf("cloud: rollout plan: no ramp steps")
	}
	prev := 0.0
	for i, s := range p.Steps {
		if s <= prev || s > 100 {
			return fmt.Errorf("cloud: rollout plan: step %d (%v%%) not ascending in (0,100]", i, s)
		}
		prev = s
	}
	if p.Ceiling < 0 || (p.Ceiling > 0 && p.Ceiling < p.Steps[0]) {
		return fmt.Errorf("cloud: rollout plan: ceiling %v%% below canary step %v%%", p.Ceiling, p.Steps[0])
	}
	if p.Guard < 0 || p.DriftGuard < 0 {
		return fmt.Errorf("cloud: rollout plan: negative guard")
	}
	return nil
}

// CohortStats is one cohort's observed evidence over an evaluation
// window: counts only, so partial aggregations merge exactly.
type CohortStats struct {
	Total, Correct, DriftFlagged int64
}

// Accuracy is Correct/Total (0 when empty).
func (s CohortStats) Accuracy() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Total)
}

// DriftRate is DriftFlagged/Total (0 when empty).
func (s CohortStats) DriftRate() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.DriftFlagged) / float64(s.Total)
}

// RolloutStatus is a snapshot of the controller's state: the ramp
// position, which with the plan fixes every device's assignment, plus
// the decision history.
type RolloutStatus struct {
	Candidate      string            `json:"candidate"`
	State          RolloutState      `json:"state"`
	Step           int               `json:"step"`
	Percent        float64           `json:"percent"`
	Windows        int               `json:"windows"`
	RollbackWindow int               `json:"rollback_window"`
	Decisions      []RolloutDecision `json:"decisions"`
}

// Rollout is the staged-rollout controller. It is safe for concurrent
// use: Percent is read on the serving path while Observe advances the
// state machine once per evaluation window.
type Rollout struct {
	plan RolloutPlan

	mu             sync.Mutex
	step           int
	state          RolloutState
	windows        int
	rollbackWindow int // 1-based window of the rollback, 0 = none
	decisions      []RolloutDecision
	lastCanary     CohortStats
	lastControl    CohortStats

	m *rolloutMetrics
}

// RolloutOption customizes controller construction.
type RolloutOption func(*Rollout)

// WithRolloutObserver registers the nazar_rollout_* instruments on reg:
// ramp percentage, state code, per-decision counters, rollback counter
// and the last observed cohort accuracies. Serving reg over httpapi
// (WithRegistry) exposes them on GET /metrics.
func WithRolloutObserver(reg *obs.Registry) RolloutOption {
	return func(r *Rollout) {
		if reg != nil {
			r.m = newRolloutMetrics(reg, r)
		}
	}
}

// NewRollout validates the plan and returns a controller positioned at
// the canary step.
func NewRollout(plan RolloutPlan, opts ...RolloutOption) (*Rollout, error) {
	plan = plan.withDefaults()
	if err := plan.validate(); err != nil {
		return nil, err
	}
	r := &Rollout{plan: plan, state: RolloutCanary, rollbackWindow: 0}
	for _, opt := range opts {
		opt(r)
	}
	return r, nil
}

// percentLocked is the current ramp percentage (0 after rollback,
// ceiling-clamped otherwise).
func (r *Rollout) percentLocked() float64 {
	if r.state == RolloutRolledBack {
		return 0
	}
	pct := r.plan.Steps[r.step]
	if r.plan.Ceiling > 0 && pct > r.plan.Ceiling {
		pct = r.plan.Ceiling
	}
	return pct
}

// Percent returns the current ramp percentage.
func (r *Rollout) Percent() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.percentLocked()
}

// State returns the lifecycle state.
func (r *Rollout) State() RolloutState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Observe feeds one evaluation window's cohort evidence to the state
// machine and returns its decision:
//
//   - terminal (complete / rolled back): DecisionNone;
//   - either cohort under MinSamples: DecisionHold;
//   - canary accuracy more than Guard below control, or canary drift
//     rate more than DriftGuard above control: DecisionRollback — the
//     candidate is withdrawn from the whole fleet;
//   - guards pass on the final step or at the ceiling: DecisionComplete;
//   - otherwise: DecisionAdvance to the next ramp step.
func (r *Rollout) Observe(canary, control CohortStats) RolloutDecision {
	r.mu.Lock()
	r.windows++
	r.lastCanary, r.lastControl = canary, control
	d := r.decideLocked(canary, control)
	r.decisions = append(r.decisions, d)
	m := r.m
	r.mu.Unlock()
	if m != nil {
		m.decisions[d].Inc()
		if d == DecisionRollback {
			m.rollbacks.Inc()
		}
	}
	return d
}

func (r *Rollout) decideLocked(canary, control CohortStats) RolloutDecision {
	if r.state == RolloutComplete || r.state == RolloutRolledBack {
		return DecisionNone
	}
	if canary.Total < int64(r.plan.MinSamples) || control.Total < int64(r.plan.MinSamples) {
		return DecisionHold
	}
	if control.Accuracy()-canary.Accuracy() > r.plan.Guard ||
		(r.plan.DriftGuard > 0 && canary.DriftRate()-control.DriftRate() > r.plan.DriftGuard) {
		r.state = RolloutRolledBack
		r.rollbackWindow = r.windows
		return DecisionRollback
	}
	atCeiling := r.plan.Ceiling > 0 && r.plan.Steps[r.step] >= r.plan.Ceiling
	if r.step == len(r.plan.Steps)-1 || atCeiling {
		r.state = RolloutComplete
		return DecisionComplete
	}
	r.step++
	r.state = RolloutRamping
	return DecisionAdvance
}

// Status snapshots the controller.
func (r *Rollout) Status() RolloutStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RolloutStatus{
		Candidate:      r.plan.Candidate,
		State:          r.state,
		Step:           r.step,
		Percent:        r.percentLocked(),
		Windows:        r.windows,
		RollbackWindow: r.rollbackWindow,
		Decisions:      append([]RolloutDecision(nil), r.decisions...),
	}
}

// stateCode maps states to the nazar_rollout_state gauge encoding.
func stateCode(s RolloutState) float64 {
	switch s {
	case RolloutCanary:
		return 0
	case RolloutRamping:
		return 1
	case RolloutComplete:
		return 2
	case RolloutRolledBack:
		return 3
	}
	return -1
}

// rolloutMetrics are the nazar_rollout_* instruments.
type rolloutMetrics struct {
	decisions map[RolloutDecision]*obs.Counter
	rollbacks *obs.Counter
}

func newRolloutMetrics(reg *obs.Registry, r *Rollout) *rolloutMetrics {
	version := obs.L("version", r.plan.Candidate)
	reg.GaugeFunc("nazar_rollout_percent",
		"Current ramp percentage of the staged rollout (0 after rollback).",
		r.Percent, version)
	reg.GaugeFunc("nazar_rollout_state",
		"Rollout state: 0=canary 1=ramping 2=complete 3=rolled-back.",
		func() float64 { return stateCode(r.State()) }, version)
	reg.GaugeFunc("nazar_rollout_canary_accuracy",
		"Canary cohort accuracy at the last guard evaluation.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return r.lastCanary.Accuracy()
		}, version)
	reg.GaugeFunc("nazar_rollout_control_accuracy",
		"Control cohort accuracy at the last guard evaluation.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return r.lastControl.Accuracy()
		}, version)
	m := &rolloutMetrics{
		decisions: map[RolloutDecision]*obs.Counter{},
		rollbacks: reg.Counter("nazar_rollout_rollbacks_total",
			"Automatic rollbacks triggered by a tripped guard.", version),
	}
	// Pre-register every decision label so the exposition is complete
	// (and stable) from the first scrape.
	sorted := append([]RolloutDecision(nil), rolloutDecisions...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, d := range sorted {
		m.decisions[d] = reg.Counter("nazar_rollout_decisions_total",
			"Guard evaluations by decision.", version, obs.L("decision", string(d)))
	}
	return m
}
