package cloud

import (
	"context"
	"log"
	"sync"
	"time"
)

// Scheduler runs the analysis/adaptation cycle periodically, the way the
// paper triggers its Lambda function "automatically based on a
// configurable time window". Each tick analyzes the window since the
// previous successful run.
type Scheduler struct {
	svc      *Service
	interval time.Duration
	// OnResult, if set, receives every cycle's outcome (deploy fan-out,
	// logging).
	OnResult func(WindowResult)
	// OnError, if set, receives cycle failures; by default they are
	// logged.
	OnError func(error)
	// Clock allows tests to substitute time; defaults to time.Now.
	Clock func() time.Time

	mu      sync.Mutex
	lastRun time.Time
	runs    int
	cancel  context.CancelFunc
	done    chan struct{}

	// runMu serializes whole cycles: with ingestion now concurrent, a
	// manual RunOnce racing a scheduled tick must not interleave two
	// RunWindow calls over overlapping windows.
	runMu sync.Mutex
}

// NewScheduler builds a scheduler over the service. interval must be
// positive.
func NewScheduler(svc *Service, interval time.Duration) *Scheduler {
	if interval <= 0 {
		interval = time.Hour
	}
	return &Scheduler{svc: svc, interval: interval, Clock: time.Now}
}

// RunOnce executes one cycle covering (lastRun, now]; exported so tests
// and manual triggers share the scheduler's bookkeeping. Cancelling ctx
// aborts the in-flight window (Stop does, for scheduled ticks).
func (s *Scheduler) RunOnce(ctx context.Context) (WindowResult, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.mu.Lock()
	from := s.lastRun
	s.mu.Unlock()
	now := s.Clock().UTC()
	res, err := s.svc.RunWindowContext(ctx, from, now, now)
	if err != nil {
		return res, err
	}
	s.mu.Lock()
	s.lastRun = now
	s.runs++
	s.mu.Unlock()
	return res, nil
}

// Runs returns how many successful cycles have completed.
func (s *Scheduler) Runs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs
}

// Start launches the periodic loop; call Stop to end it. Start is a
// no-op if already running.
func (s *Scheduler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		ticker := time.NewTicker(s.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				res, err := s.RunOnce(ctx)
				switch {
				case ctx.Err() != nil:
					return // stopped mid-window: nothing to report
				case err != nil && s.OnError != nil:
					s.OnError(err)
				case err != nil:
					log.Printf("cloud: scheduled analysis: %v", err)
				case s.OnResult != nil:
					s.OnResult(res)
				}
			}
		}
	}()
}

// Stop ends the periodic loop and waits for it to exit. Safe to call
// multiple times.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	cancel, done := s.cancel, s.done
	s.cancel, s.done = nil, nil
	s.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}
