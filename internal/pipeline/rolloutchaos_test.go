package pipeline

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/faultinject"
	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/registry"
	"nazar/internal/tensor"
	"nazar/internal/weather"
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

// RolloutChaosConfig parameterizes the staged-rollout chaos harness: a
// fleet streams scored inferences over the wire edge while the
// cloud.Rollout control plane ramps a candidate version; the harness
// audits both the delivery invariant (lost_acked == 0) and the
// control-plane invariant (a regressed candidate is rolled back before
// the ramp exceeds its ceiling).
type RolloutChaosConfig struct {
	// FaultRate is the per-request fault probability on the wire.
	FaultRate float64
	// Seed drives the fault injector, transport jitter and accuracy draws.
	Seed uint64
	// Plan is the rollout under test.
	Plan cloud.RolloutPlan
	// CanaryDelta is the candidate's true accuracy delta versus the
	// baseline version's (negative = the regressed build the guards must
	// catch).
	CanaryDelta float64
	// Observe registers nazar_rollout_* metrics and scrapes GET /metrics
	// through the faulty wire at the end of the run.
	Observe bool
}

// The rollout fleet: 200 devices — enough that even the first ramp step
// holds a statistically useful canary cohort — stream 10 entries each
// per window for 8 windows, and the baseline version is right 90% of
// the time.
const (
	rolloutDevices      = 200
	rolloutPerDevice    = 10
	rolloutWindows      = 8
	rolloutBaseAccuracy = 0.9
)

// RolloutChaosResult is the harness verdict.
type RolloutChaosResult struct {
	FaultRate  float64 `json:"fault_rate"`
	Streamed   int     `json:"streamed"`
	Acked      int     `json:"acked"`
	Delivered  int     `json:"delivered"`
	Duplicates int     `json:"duplicates"`
	// LostAcked is the delivery invariant: always zero.
	LostAcked int `json:"lost_acked"`
	// MaxPercent is the widest the ramp ever got — the blast radius.
	MaxPercent float64 `json:"max_percent"`
	// FinalState and RollbackWindow are the control plane's verdict.
	FinalState     string   `json:"final_state"`
	FinalPercent   float64  `json:"final_percent"`
	RollbackWindow int      `json:"rollback_window"`
	Decisions      []string `json:"decisions"`
	// RolloutMetrics holds the nazar_rollout_* exposition lines scraped
	// over the faulty wire (Observe only).
	RolloutMetrics []string `json:"rollout_metrics,omitempty"`
}

// Per-entry attributes the harness stamps so the cloud-side audit can
// reconstruct cohort statistics from the drift log alone.
const (
	rolloutAttrWindow  = "rollout_window"
	rolloutAttrCorrect = "rollout_ok"
)

// RunRolloutChaos ramps cfg.Plan's candidate over an analytic fleet
// streaming through the wire edge. Every window, each device asks the
// control plane which version it serves (sticky assignment), streams
// entries whose correctness reflects that version's true accuracy, and
// the harness then scores the canary against the control cohort *from
// the entries that reached the cloud log* — exactly the evidence a real
// control plane would have — and feeds the verdict to Rollout.Observe.
func RunRolloutChaos(cfg RolloutChaosConfig) (*RolloutChaosResult, error) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(cfg.Seed, 1))
	var reg *obs.Registry
	if cfg.Observe {
		reg = obs.NewRegistry()
	}
	rollout, err := cloud.NewRollout(cfg.Plan, cloud.WithRolloutObserver(reg))
	if err != nil {
		return nil, fmt.Errorf("rollout chaos: %w", err)
	}
	e, err := newWire(Wire{Faults: faultinject.Preset(cfg.FaultRate)}, cfg.Seed, cloud.DefaultConfig(), reg,
		base, rolloutDevices*rolloutPerDevice*rolloutWindows)
	if err != nil {
		return nil, err
	}
	res := &RolloutChaosResult{MaxPercent: rollout.Percent()}
	err = cfg.ramp(e, rollout, res)
	if err == nil && cfg.Observe {
		if res.RolloutMetrics, err = scrapeRolloutMetrics(e.ts.URL); err != nil {
			err = fmt.Errorf("rollout chaos: metrics scrape: %w", err)
		}
	}
	if err := e.close(err); err != nil {
		return nil, err
	}
	a, status := e.audit, rollout.Status()
	res.FaultRate, res.Streamed, res.Acked = a.FaultRate, a.Streamed, a.Acked
	res.Delivered, res.Duplicates, res.LostAcked = a.Delivered, a.Duplicates, a.LostAcked
	res.FinalState, res.FinalPercent, res.RollbackWindow = string(status.State), rollout.Percent(), status.RollbackWindow
	for _, d := range status.Decisions {
		res.Decisions = append(res.Decisions, string(d))
	}
	return res, nil
}

// ramp streams the analytic fleet over e window by window and feeds each
// window's cohort verdict to the rollout.
func (cfg RolloutChaosConfig) ramp(e *wireEdge, rollout *cloud.Rollout, res *RolloutChaosResult) error {
	// Device assignment as the controller's plan defaults it: salted by
	// the candidate, the baseline named "base".
	candidate := cfg.Plan.Candidate
	salt := cmp.Or(cfg.Plan.Salt, candidate)
	baseline := cmp.Or(cfg.Plan.Baseline, "base")
	rng := tensor.NewRand(cfg.Seed, 0x5011)
	start := weather.Day(0)
	for w := 0; w < rolloutWindows; w++ {
		for i := 0; i < rolloutDevices; i++ {
			id := fmt.Sprintf("rc_dev_%d", i)
			version := baseline
			if registry.InRamp(registry.StickyFraction(id, salt), rollout.Percent()) {
				version = candidate
			}
			acc := rolloutBaseAccuracy
			if version == candidate {
				acc += cfg.CanaryDelta
			}
			for j := 0; j < rolloutPerDevice; j++ {
				correct := rng.Float64() < acc
				entry := driftlog.Entry{
					Time: start.Add(time.Duration(w*rolloutPerDevice+j) * time.Minute),
					Attrs: map[string]string{
						driftlog.AttrDevice: id,
						driftlog.AttrModel:  version,
						rolloutAttrWindow:   strconv.Itoa(w),
						rolloutAttrCorrect:  boolAttr(correct),
					},
					Drift:    !correct, // detector fires on the regression
					SampleID: -1,
				}
				if err := e.report(entry, nil); err != nil {
					return fmt.Errorf("rollout chaos: report: %w", err)
				}
			}
		}
		if err := e.flush(context.Background(), w); err != nil {
			return fmt.Errorf("rollout chaos: window %d: %w", w, err)
		}
		// Score the window from what actually reached the cloud log —
		// deduped, because the wire is at-least-once.
		canary, control := windowStats(e.svc, candidate, w)
		rollout.Observe(canary, control)
		if pct := rollout.Percent(); pct > res.MaxPercent {
			res.MaxPercent = pct
		}
	}
	return nil
}

// windowStats reconstructs the canary and control cohort statistics for
// window w from the cloud's drift log, deduplicating retried entries by
// their sequence attribute.
func windowStats(svc *cloud.Service, candidate string, w int) (canary, control cloud.CohortStats) {
	want := strconv.Itoa(w)
	seen := map[string]bool{}
	svc.Log().Each(func(_ int, e driftlog.Entry) {
		if e.Attrs[rolloutAttrWindow] != want {
			return
		}
		seq := e.Attrs[auditAttrSeq]
		if seen[seq] {
			return
		}
		seen[seq] = true
		s := &control
		if e.Attrs[driftlog.AttrModel] == candidate {
			s = &canary
		}
		s.Total++
		if e.Attrs[rolloutAttrCorrect] == "1" {
			s.Correct++
		}
		if e.Drift {
			s.DriftFlagged++
		}
	})
	return canary, control
}

// scrapeRolloutMetrics pulls GET /metrics (through the same faulty
// wire, retrying a few times) and returns the nazar_rollout_* lines.
func scrapeRolloutMetrics(url string) ([]string, error) {
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			lastErr = err
			continue
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("status %d err %v", resp.StatusCode, err)
			continue
		}
		var lines []string
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "nazar_rollout_") {
				lines = append(lines, line)
			}
		}
		return lines, nil
	}
	return nil, lastErr
}

func boolAttr(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
