package pipeline

import (
	"encoding/json"
	"strings"
	"testing"

	"nazar/internal/cloud"
)

func rolloutChaosPlan() cloud.RolloutPlan {
	return cloud.RolloutPlan{
		Candidate:  "v2",
		Steps:      []float64{10, 25, 50, 100},
		Ceiling:    50,
		Guard:      0.05,
		DriftGuard: 0.15,
		MinSamples: 50,
	}
}

// TestChaosAutoRollback is the end-to-end control-plane invariant: a
// deliberately regressed candidate injected into a canary cohort, under
// a 10% wire fault rate, is rolled back before the ramp exceeds its
// ceiling — and the chaos does not cost a single acked entry.
func TestChaosAutoRollback(t *testing.T) {
	res, err := RunRolloutChaos(RolloutChaosConfig{
		FaultRate:   0.1,
		Seed:        7,
		Plan:        rolloutChaosPlan(),
		CanaryDelta: -0.2, // 0.70 canary vs 0.90 control: far past the 5-point guard
		Observe:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalState != string(cloud.RolloutRolledBack) {
		t.Fatalf("final state %q, want rolled-back (decisions: %v)", res.FinalState, res.Decisions)
	}
	if res.MaxPercent > 50 {
		t.Fatalf("ramp reached %v%% before rollback, ceiling is 50%%", res.MaxPercent)
	}
	if res.FinalPercent != 0 {
		t.Fatalf("final percent %v after rollback, want 0", res.FinalPercent)
	}
	if res.RollbackWindow == 0 {
		t.Fatal("no rollback window recorded")
	}
	if res.LostAcked != 0 {
		t.Fatalf("delivery invariant broken: %d entries acked but lost", res.LostAcked)
	}
	if res.Delivered == 0 || res.Streamed == 0 {
		t.Fatalf("degenerate run: streamed=%d delivered=%d", res.Streamed, res.Delivered)
	}
	// The rollback is visible on /metrics, scraped through the same
	// faulty wire the fleet used.
	joined := strings.Join(res.RolloutMetrics, "\n")
	for _, want := range []string{
		`nazar_rollout_rollbacks_total{version="v2"} 1`,
		`nazar_rollout_state{version="v2"} 3`,
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("scraped metrics missing %q:\n%s", want, joined)
		}
	}
}

// TestChaosRolloutHealthy is the control: the same harness with a
// healthy candidate completes the ramp (to its ceiling) instead of
// rolling back — the guards aren't just always firing.
func TestChaosRolloutHealthy(t *testing.T) {
	res, err := RunRolloutChaos(RolloutChaosConfig{
		FaultRate:   0.1,
		Seed:        7,
		Plan:        rolloutChaosPlan(),
		CanaryDelta: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalState != string(cloud.RolloutComplete) {
		t.Fatalf("final state %q, want complete (decisions: %v)", res.FinalState, res.Decisions)
	}
	if res.MaxPercent != 50 {
		t.Fatalf("healthy ramp peaked at %v%%, want the 50%% ceiling", res.MaxPercent)
	}
	if res.LostAcked != 0 {
		t.Fatalf("delivery invariant broken: %d entries acked but lost", res.LostAcked)
	}
}

// TestChaosRolloutDeterminism: the same seed reproduces the same rollout
// run — fault trace, delivery counts, ramp decisions and the metrics
// scraped over the wire.
func TestChaosRolloutDeterminism(t *testing.T) {
	run := func() []byte {
		res, err := RunRolloutChaos(RolloutChaosConfig{
			FaultRate:   0.1,
			Seed:        7,
			Plan:        rolloutChaosPlan(),
			CanaryDelta: -0.2,
			Observe:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if a, b := run(), run(); string(a) != string(b) {
		t.Fatalf("same seed produced different rollout results:\n  %s\n  %s", a, b)
	}
}
