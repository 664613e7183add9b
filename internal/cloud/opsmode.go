package cloud

import (
	"context"
	"fmt"
	"sync"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/driftlog"
	"nazar/internal/rca"
)

// Alert notifies the ML-ops team that drift was detected and diagnosed
// (§3.1: operators can run Nazar out of autopilot, receive alerts, and
// decide manually what to adapt).
type Alert struct {
	Time    time.Time
	Cause   rca.Cause
	Drift   int // drifted rows attributed to the cause in the window
	Total   int // rows matching the cause in the window
	Message string
}

// Alerter receives alerts; implementations might page, post to chat, or
// just record (AlertLog).
type Alerter interface {
	Alert(a Alert)
}

// AlertFunc adapts a function to the Alerter interface.
type AlertFunc func(Alert)

// Alert implements Alerter.
func (f AlertFunc) Alert(a Alert) { f(a) }

// AlertLog is an Alerter that records alerts in memory.
type AlertLog struct {
	mu     sync.Mutex
	alerts []Alert
}

// Alert implements Alerter.
func (l *AlertLog) Alert(a Alert) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.alerts = append(l.alerts, a)
}

// Alerts returns a copy of the recorded alerts.
func (l *AlertLog) Alerts() []Alert {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Alert(nil), l.alerts...)
}

// SetAlerter installs the alert sink (nil disables alerts).
func (s *Service) SetAlerter(a Alerter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.alerter = a
}

// alertCauses emits one alert per discovered cause, counted over the view
// the causes were diagnosed on.
func (s *Service) alertCauses(v *driftlog.View, causes []rca.Cause, now time.Time) {
	s.mu.Lock()
	alerter := s.alerter
	s.mu.Unlock()
	if alerter == nil {
		return
	}
	for _, c := range causes {
		cr, err := v.Count(c.Items, nil)
		if err != nil {
			continue
		}
		alerter.Alert(Alert{
			Time:  now,
			Cause: c,
			Drift: cr.Drift,
			Total: cr.Total,
			Message: fmt.Sprintf("drift cause %s: %d/%d entries drifted (risk ratio %.2f)",
				c, cr.Drift, cr.Total, c.Metrics.RiskRatio),
		})
	}
}

// DiagnoseContext runs root-cause analysis only — the manual-mode entry
// point: the ML-ops team inspects the causes (and receives alerts) without
// any adaptation being triggered. It analyzes through the same
// window-analysis cache as RunWindowContext, so a diagnosed window costs
// the following cycle nothing to re-analyze. The context threads through
// mining and counterfactual pruning.
func (s *Service) DiagnoseContext(ctx context.Context, from, to, now time.Time) ([]rca.Cause, error) {
	v := s.log.Window(from, to)
	causes, err := s.analyze(ctx, v)
	if err != nil {
		return nil, wrapUnlessCancelled(ctx, err, "cloud: diagnose")
	}
	s.alertCauses(v, causes, now)
	return causes, nil
}

// AdaptCausesContext adapts only the operator-selected causes (manual
// mode's second half). Returns the produced versions; the clean model is
// not touched. A cancelled call aborts in-flight adaptation runs at their
// next optimizer step and deploys nothing.
func (s *Service) AdaptCausesContext(ctx context.Context, causes []rca.Cause, from, to, now time.Time) ([]adapt.BNVersion, error) {
	v := s.log.Window(from, to)
	runs, err := adapt.WindowContext(ctx, s.Base(), causes, causeSamples(v, s.cfg.MinSamplesPerCause), s.cfg.MinSamplesPerCause, nil, s.cfg.AdaptCfg, now)
	if err != nil {
		return nil, wrapUnlessCancelled(ctx, err, "cloud: manual adaptation")
	}
	if s.metrics != nil {
		s.metrics.observeRuns(runs)
	}
	s.mu.Lock()
	s.deployed = append(s.deployed, runs.Versions...)
	s.mu.Unlock()
	return runs.Versions, nil
}
