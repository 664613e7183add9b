package cloud

import (
	"fmt"
	"strings"
	"testing"

	"nazar/internal/obs"
	"nazar/internal/registry"
)

func testPlan() RolloutPlan {
	return RolloutPlan{
		Candidate:  "v2",
		Steps:      []float64{1, 5, 25, 50, 100},
		Guard:      0.03,
		DriftGuard: 0.10,
		MinSamples: 100,
	}
}

// healthy returns cohort stats with the given accuracy over n samples.
func healthy(n int64, acc float64) CohortStats {
	return CohortStats{Total: n, Correct: int64(acc * float64(n))}
}

func TestRolloutPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*RolloutPlan)
	}{
		{"empty candidate", func(p *RolloutPlan) { p.Candidate = "" }},
		{"no steps", func(p *RolloutPlan) { p.Steps = nil }},
		{"descending steps", func(p *RolloutPlan) { p.Steps = []float64{5, 1} }},
		{"step over 100", func(p *RolloutPlan) { p.Steps = []float64{1, 101} }},
		{"zero step", func(p *RolloutPlan) { p.Steps = []float64{0, 5} }},
		{"ceiling below canary", func(p *RolloutPlan) { p.Ceiling = 0.5 }},
		{"negative guard", func(p *RolloutPlan) { p.Guard = -1 }},
	}
	for _, tc := range cases {
		p := testPlan()
		tc.mut(&p)
		if _, err := NewRollout(p); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
	if _, err := NewRollout(testPlan()); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// TestRolloutLifecycleHealthy walks a healthy candidate through the
// whole ramp: hold until evidence, advance per window, complete at 100%.
func TestRolloutLifecycleHealthy(t *testing.T) {
	r, err := NewRollout(testPlan())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Percent(); got != 1 {
		t.Fatalf("initial percent = %v, want 1 (canary step)", got)
	}
	if got := r.Observe(healthy(10, 0.9), healthy(1000, 0.9)); got != DecisionHold {
		t.Fatalf("under-sampled canary: decision %q, want hold", got)
	}
	if r.State() != RolloutCanary || r.Percent() != 1 {
		t.Fatalf("hold moved the ramp: state=%v percent=%v", r.State(), r.Percent())
	}
	wantPercents := []float64{5, 25, 50, 100}
	for i, want := range wantPercents {
		if got := r.Observe(healthy(1000, 0.9), healthy(1000, 0.9)); got != DecisionAdvance {
			t.Fatalf("window %d: decision %q, want advance", i, got)
		}
		if got := r.Percent(); got != want {
			t.Fatalf("window %d: percent %v, want %v", i, got, want)
		}
	}
	if got := r.Observe(healthy(1000, 0.9), healthy(1000, 0.9)); got != DecisionComplete {
		t.Fatalf("final window: decision %q, want complete", got)
	}
	if r.State() != RolloutComplete || r.Percent() != 100 {
		t.Fatalf("after complete: state=%v percent=%v", r.State(), r.Percent())
	}
	if got := r.Observe(healthy(1000, 0.9), healthy(1000, 0.9)); got != DecisionNone {
		t.Fatalf("terminal observe: decision %q, want none", got)
	}
}

// TestRolloutAutoRollback trips each guard and checks the candidate is
// withdrawn fleet-wide.
func TestRolloutAutoRollback(t *testing.T) {
	t.Run("accuracy guard", func(t *testing.T) {
		r, _ := NewRollout(testPlan())
		// 85% canary vs 90% control: 5 points > 3-point guard.
		if got := r.Observe(healthy(1000, 0.85), healthy(1000, 0.90)); got != DecisionRollback {
			t.Fatalf("decision %q, want rollback", got)
		}
		if r.State() != RolloutRolledBack || r.Percent() != 0 {
			t.Fatalf("after rollback: state=%v percent=%v", r.State(), r.Percent())
		}
		if got := r.assign("any-device"); got != "base" {
			t.Fatalf("rolled-back assign = %q, want baseline", got)
		}
		if st := r.Status(); st.RollbackWindow != 1 {
			t.Fatalf("rollback window = %d, want 1", st.RollbackWindow)
		}
	})
	t.Run("drift guard", func(t *testing.T) {
		r, _ := NewRollout(testPlan())
		canary := healthy(1000, 0.90)
		canary.DriftFlagged = 300 // 30% vs 5%: over the 10-point drift guard
		control := healthy(1000, 0.90)
		control.DriftFlagged = 50
		if got := r.Observe(canary, control); got != DecisionRollback {
			t.Fatalf("decision %q, want rollback", got)
		}
	})
	t.Run("within guard", func(t *testing.T) {
		r, _ := NewRollout(testPlan())
		// 2-point regression stays under the 3-point guard.
		if got := r.Observe(healthy(1000, 0.88), healthy(1000, 0.90)); got != DecisionAdvance {
			t.Fatalf("decision %q, want advance", got)
		}
	})
}

// TestRolloutCeiling pins the blast-radius bound: the ramp never
// exceeds the ceiling, and guards passing at the ceiling complete the
// rollout there.
func TestRolloutCeiling(t *testing.T) {
	p := testPlan()
	p.Ceiling = 30
	r, err := NewRollout(p)
	if err != nil {
		t.Fatal(err)
	}
	maxSeen := 0.0
	for i := 0; i < 10; i++ {
		r.Observe(healthy(1000, 0.9), healthy(1000, 0.9))
		if pct := r.Percent(); pct > maxSeen {
			maxSeen = pct
		}
	}
	if maxSeen > 30 {
		t.Fatalf("ramp reached %v%%, ceiling is 30%%", maxSeen)
	}
	if r.State() != RolloutComplete {
		t.Fatalf("state %v, want complete at ceiling", r.State())
	}
}

// TestRolloutStickyAcrossRestart is the restart half of the stickiness
// property: a controller restored from a persisted status assigns every
// device exactly as the original did, at every ramp rung.
func TestRolloutStickyAcrossRestart(t *testing.T) {
	r, _ := NewRollout(testPlan())
	ids := make([]string, 2000)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev-%d", i)
	}
	for window := 0; window < 4; window++ {
		restored, err := restoreRollout(testPlan(), r.Status())
		if err != nil {
			t.Fatal(err)
		}
		if restored.Percent() != r.Percent() {
			t.Fatalf("restored percent %v != %v", restored.Percent(), r.Percent())
		}
		for _, id := range ids {
			if a, b := r.assign(id), restored.assign(id); a != b {
				t.Fatalf("window %d device %q: %q before restart, %q after", window, id, a, b)
			}
		}
		r.Observe(healthy(1000, 0.9), healthy(1000, 0.9))
	}
	// Restore rejects mismatched or corrupt statuses.
	if _, err := restoreRollout(testPlan(), RolloutStatus{Candidate: "other"}); err == nil {
		t.Fatal("restore accepted status for a different candidate")
	}
	if _, err := restoreRollout(testPlan(), RolloutStatus{Candidate: "v2", Step: 99}); err == nil {
		t.Fatal("restore accepted out-of-range step")
	}
	if _, err := restoreRollout(testPlan(), RolloutStatus{Candidate: "v2", State: "bogus"}); err == nil {
		t.Fatal("restore accepted unknown state")
	}
}

// TestRolloutMetrics checks the nazar_rollout_* exposition end to end.
func TestRolloutMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	r, err := NewRollout(testPlan(), WithRolloutObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	r.Observe(healthy(1000, 0.9), healthy(1000, 0.9))  // advance
	r.Observe(healthy(1000, 0.80), healthy(1000, 0.9)) // rollback
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`nazar_rollout_rollbacks_total{version="v2"} 1`,
		`nazar_rollout_decisions_total{decision="advance",version="v2"} 1`,
		`nazar_rollout_decisions_total{decision="rollback",version="v2"} 1`,
		`nazar_rollout_state{version="v2"} 3`,
		`nazar_rollout_percent{version="v2"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// restoreRollout rebuilds a controller from a status snapshot — the
// restart half of the stickiness property: Status must carry all the
// state Assign reads. The plan must be the one the
// status was produced under (the candidate is cross-checked).
func restoreRollout(plan RolloutPlan, st RolloutStatus, opts ...RolloutOption) (*Rollout, error) {
	r, err := NewRollout(plan, opts...)
	if err != nil {
		return nil, err
	}
	if st.Candidate != r.plan.Candidate {
		return nil, fmt.Errorf("cloud: rollout restore: status for %q, plan for %q", st.Candidate, r.plan.Candidate)
	}
	if st.Step < 0 || st.Step >= len(r.plan.Steps) {
		return nil, fmt.Errorf("cloud: rollout restore: step %d out of range", st.Step)
	}
	switch st.State {
	case RolloutCanary, RolloutRamping, RolloutComplete, RolloutRolledBack:
	default:
		return nil, fmt.Errorf("cloud: rollout restore: unknown state %q", st.State)
	}
	r.mu.Lock()
	r.step = st.Step
	r.state = st.State
	r.windows = st.Windows
	r.rollbackWindow = st.RollbackWindow
	r.decisions = append([]RolloutDecision(nil), st.Decisions...)
	r.mu.Unlock()
	return r, nil
}

// assign returns the version a device serves at the controller's current
// ramp position: Candidate iff the device's sticky fraction falls inside
// the ramp. Two controllers at the same ramp position agree on every
// device.
func (r *Rollout) assign(deviceID string) string {
	if registry.InRamp(registry.StickyFraction(deviceID, r.plan.Salt), r.Percent()) {
		return r.plan.Candidate
	}
	return r.plan.Baseline
}
