// Package transport is the production device→cloud client: the
// resilient half of the wire protocol that internal/httpapi speaks.
//
// The paper's deployment model is millions of intermittently-connected
// mobile devices reporting drift-log entries and pulling adapted
// versions over flaky cellular links. httpapi.Client is a thin wire
// binding — one request, one error — which is fine for tests and fatal
// for a fleet. Client layers the reliability machinery on top:
//
//   - a bounded offline spool that buffers Report calls while the
//     network is down, coalesces them into IngestBatch round-trips,
//     and degrades by dropping its oldest entries when full;
//   - jittered exponential backoff that honors Retry-After;
//   - per-request timeouts and end-to-end context cancellation;
//   - a consecutive-failure circuit breaker with half-open probes, so
//     a dead backend costs one probe per cooldown instead of a retry
//     storm from every device;
//   - at-least-once acknowledgment: entries leave the spool only after
//     the server confirmed the batch, and the OnAck hook reports
//     exactly which entries were delivered.
//
// Everything is instrumented through internal/obs (retries, breaker
// state, spool depth, dropped entries) and every time source is
// injectable, so the whole state machine is testable with a fake clock
// and a seeded PRNG — see the package tests and the chaos harness in
// internal/pipeline.
package transport

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/driftlog"
	"nazar/internal/httpapi"
	"nazar/internal/nn"
	"nazar/internal/obs"
)

// ErrClosed is returned by Report after Close.
var ErrClosed = errors.New("transport: client closed")

// Config tunes the client. The zero value is production-ready; tests
// and the chaos harness shrink the time constants.
type Config struct {
	// MaxBatch caps entries per IngestBatch round-trip (default 256).
	MaxBatch int
	// FlushInterval is how often the background worker ships a partial
	// batch (default 500ms).
	FlushInterval time.Duration
	// RequestTimeout bounds each individual attempt (default 10s).
	RequestTimeout time.Duration
	// MaxAttempts bounds attempts per batch within one flush cycle and
	// per retried call (default 8). Exhausting it is not data loss for
	// ingest: the batch stays spooled for the next cycle.
	MaxAttempts int
	// SpoolCapacity bounds the offline spool (default 4096 entries).
	SpoolCapacity int
	// Backoff is the retry schedule; Breaker the failure gate.
	Backoff BackoffConfig
	Breaker BreakerConfig
	// Seed seeds the jitter PRNG (deterministic backoff in tests).
	Seed uint64
	// Name labels this client's metrics (default "device").
	Name string
	// Registry receives the transport instruments (private one if nil).
	Registry *obs.Registry
	// Logger receives terminal failures — exhausted retries, rejected
	// batches, spool evictions (slog.Default if nil).
	Logger *slog.Logger
	// OnAck, if set, is called with each server-acknowledged batch.
	OnAck func(entries []driftlog.Entry)
	// OnDrop, if set, is called per entry lost before acknowledgment
	// (reason "spool_full" or "rejected").
	OnDrop func(entry driftlog.Entry, reason string)
	// HTTPTransport overrides the underlying RoundTripper — the seam
	// where faultinject.Injector.RoundTripper plugs in.
	HTTPTransport http.RoundTripper
	// Now and Sleep inject the clock (tests run the retry/breaker
	// machinery on a fake clock with zero wall-time sleeps).
	Now   func() time.Time
	Sleep func(ctx context.Context, d time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 500 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.SpoolCapacity <= 0 {
		c.SpoolCapacity = 4096
	}
	if c.Name == "" {
		c.Name = "device"
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = sleepContext
	}
	return c
}

// sleepContext is the real-clock Sleep: a timer racing the context.
func sleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats is a point-in-time snapshot of the client's delivery counters.
type Stats struct {
	// Acked counts entries the server acknowledged.
	Acked uint64
	// SpoolDropped counts entries evicted by drop-oldest before they
	// were acknowledged.
	SpoolDropped uint64
	// Rejected counts entries the server permanently refused (4xx).
	Rejected uint64
	// Retries counts attempts beyond the first, across all calls.
	Retries uint64
	// BreakerOpens counts circuit-breaker open transitions.
	BreakerOpens uint64
	// SpoolDepth is the current number of waiting entries.
	SpoolDepth int
	// BreakerState is the current breaker state.
	BreakerState BreakerState
}

// Client is the resilient device-side client. Report never blocks on
// the network: entries enter the spool and a background worker ships
// them in batches. Control-plane calls (Versions, Base, Analyze,
// Status) retry through the same backoff and breaker.
type Client struct {
	api *httpapi.Client
	cfg Config

	spool   *spool
	breaker *breaker
	backoff *backoff
	m       *clientMetrics

	acked   atomic.Uint64
	rejects atomic.Uint64
	retries atomic.Uint64

	drainMu sync.Mutex // serializes drain (worker vs Flush vs Close)

	wake       chan struct{}
	stop       chan struct{}
	workerDone chan struct{}
	bgCtx      context.Context
	bgCancel   context.CancelFunc
	closed     atomic.Bool
	closeOnce  sync.Once
}

// Option customizes NewClient (functional options, consistent with
// cloud.WithClock / httpapi.WithRegistry).
type Option func(*clientOptions)

type clientOptions struct {
	cfg      Config
	codec    httpapi.Codec
	compress bool
}

// WithConfig replaces the whole Config (zero fields still default).
func WithConfig(cfg Config) Option {
	return func(o *clientOptions) { o.cfg = cfg }
}

// WithCodec selects the ingest wire codec — e.g.
// httpapi.BinaryCodec{} for the columnar binary framing. If the server
// refuses the codec (415 / codec_unsupported) the client logs it and
// downgrades to JSON for the rest of its life, so a fleet can roll a
// new codec before its cloud does.
func WithCodec(c httpapi.Codec) Option {
	return func(o *clientOptions) { o.codec = c }
}

// WithCompression gzips spooled ingest frames on the wire.
func WithCompression(on bool) Option {
	return func(o *clientOptions) { o.compress = on }
}

// WithBatcher tunes the spool's shipping cadence: entries per
// IngestBatch round-trip and the partial-batch flush interval.
func WithBatcher(maxBatch int, flushInterval time.Duration) Option {
	return func(o *clientOptions) {
		o.cfg.MaxBatch = maxBatch
		o.cfg.FlushInterval = flushInterval
	}
}

// NewClient returns a started client for the given server URL.
func NewClient(baseURL string, opts ...Option) *Client {
	var o clientOptions
	for _, opt := range opts {
		opt(&o)
	}
	cfg := o.cfg.withDefaults()
	api := httpapi.NewClient(baseURL)
	// Attempt deadlines come from per-request contexts, not a global
	// client timeout (which would also cap slow-but-progressing pulls).
	api.HTTP = &http.Client{Transport: cfg.HTTPTransport}
	api.Codec = o.codec
	api.Compress = o.compress
	c := &Client{
		api:        api,
		cfg:        cfg,
		spool:      newSpool(cfg.SpoolCapacity),
		backoff:    newBackoff(cfg.Backoff, cfg.Seed),
		wake:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
		workerDone: make(chan struct{}),
	}
	c.breaker = newBreaker(cfg.Breaker, cfg.Now)
	c.m = newClientMetrics(cfg.Registry, cfg.Name, c)
	c.bgCtx, c.bgCancel = context.WithCancel(context.Background())
	go c.worker()
	return c
}

// Report queues one drift-log entry (+ optional sample) for delivery.
// It never blocks on the network; when the spool is full the oldest
// unacknowledged entry is dropped to make room. The entry is only
// "delivered" once the server acknowledges its batch (OnAck / Stats).
func (c *Client) Report(entry driftlog.Entry, sample []float64) error {
	if c.closed.Load() {
		return ErrClosed
	}
	evicted, dropped := c.spool.Push(entry, sample)
	if dropped {
		c.m.droppedSpool.Inc()
		if c.cfg.OnDrop != nil {
			c.cfg.OnDrop(evicted, "spool_full")
		}
	}
	if c.spool.Len() >= c.cfg.MaxBatch {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
	return nil
}

// Flush synchronously drains the spool: it returns once every spooled
// entry has been acknowledged or rejected, or with the first terminal
// error (entries then remain spooled for the next flush).
func (c *Client) Flush(ctx context.Context) error { return c.drain(ctx) }

// Close stops the background worker and makes a final drain attempt,
// retrying until the spool is empty or ctx is done. After Close,
// Report returns ErrClosed. Close is idempotent.
func (c *Client) Close(ctx context.Context) error {
	var err error
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		close(c.stop)
		c.bgCancel() // abort any in-flight worker sleep/request
		<-c.workerDone
		for {
			err = c.drain(ctx)
			if err == nil || ctx.Err() != nil {
				break
			}
		}
		if err != nil {
			c.cfg.Logger.Error("transport: close abandoned spooled entries",
				"remaining", c.spool.Len(), "err", err)
		}
	})
	return err
}

// Stats snapshots the delivery counters.
func (c *Client) Stats() Stats {
	return Stats{
		Acked:        c.acked.Load(),
		SpoolDropped: c.spool.Dropped(),
		Rejected:     c.rejects.Load(),
		Retries:      c.retries.Load(),
		BreakerOpens: c.breaker.Opens(),
		SpoolDepth:   c.spool.Len(),
		BreakerState: c.breaker.State(),
	}
}

// API exposes the underlying thin wire client (no retries) for calls
// that should fail fast.
func (c *Client) API() *httpapi.Client { return c.api }

// worker is the background flush loop: it ships full batches as soon
// as Report signals one, and partial batches every FlushInterval.
func (c *Client) worker() {
	defer close(c.workerDone)
	timer := time.NewTimer(c.cfg.FlushInterval)
	defer timer.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-c.wake:
		case <-timer.C:
		}
		// Errors are already counted and logged; entries stay spooled
		// and the next tick retries them.
		_ = c.drain(c.bgCtx)
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(c.cfg.FlushInterval)
	}
}

// drain ships spooled entries batch by batch until the spool is empty.
func (c *Client) drain(ctx context.Context) error {
	c.drainMu.Lock()
	defer c.drainMu.Unlock()
	for {
		entries, samples, lastSeq, anySample := c.spool.Peek(c.cfg.MaxBatch)
		if len(entries) == 0 {
			return nil
		}
		if !anySample {
			samples = nil
		}
		if err := c.sendBatch(ctx, entries, samples, lastSeq); err != nil {
			return err
		}
	}
}

// sendBatch delivers one batch with retries. On success or permanent
// rejection the batch is removed from the spool; on exhausted retries
// it stays for the next drain cycle.
func (c *Client) sendBatch(ctx context.Context, entries []driftlog.Entry, samples [][]float64, lastSeq uint64) error {
	span := c.m.flushSecs.Start()
	err := c.retry(ctx, func(rctx context.Context) error {
		_, err := c.api.IngestBatchContext(rctx, entries, samples)
		return err
	})
	switch {
	case err == nil:
		span.End()
		c.spool.AckThrough(lastSeq)
		c.acked.Add(uint64(len(entries)))
		c.m.acked.Add(uint64(len(entries)))
		if c.cfg.OnAck != nil {
			c.cfg.OnAck(entries)
		}
		return nil
	case isPermanent(err):
		if c.downgradeCodec(err) {
			// The server refused the codec, not the data. Re-send the
			// same batch as JSON instead of poison-dropping it; the
			// codec field is already cleared (we hold drainMu), so the
			// recursion cannot downgrade twice.
			return c.sendBatch(ctx, entries, samples, lastSeq)
		}
		// The server understood the request and refused it; retrying
		// the same bytes cannot succeed. Drop the batch rather than
		// wedging the spool behind a poison batch.
		c.spool.AckThrough(lastSeq)
		c.rejects.Add(uint64(len(entries)))
		c.m.rejected.Add(uint64(len(entries)))
		c.cfg.Logger.Error("transport: batch rejected",
			"entries", len(entries),
			"content_type", c.ingestContentType(),
			"body_snippet", bodySnippet(err),
			"err", err)
		if c.cfg.OnDrop != nil {
			for _, e := range entries {
				c.cfg.OnDrop(e, "rejected")
			}
		}
		return nil
	default:
		c.cfg.Logger.Warn("transport: batch undelivered, will retry",
			"entries", len(entries), "err", err)
		return err
	}
}

// retry runs op with per-attempt timeouts, consulting the breaker
// before each attempt and backing off (honoring Retry-After) between
// failures. Permanent errors return immediately.
func (c *Client) retry(ctx context.Context, op func(ctx context.Context) error) error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !c.breaker.Allow() {
			// Fail-fast window: wait out the cooldown, then loop to
			// take (or contend for) the half-open probe slot.
			wait := c.breaker.NextAllowed().Sub(c.cfg.Now())
			if wait <= 0 {
				wait = time.Millisecond
			}
			if err := c.cfg.Sleep(ctx, wait); err != nil {
				return err
			}
			continue
		}
		rctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
		err := op(rctx)
		cancel()
		if err == nil {
			c.breaker.Success()
			return nil
		}
		if isPermanent(err) {
			// The request was delivered and refused — the link works.
			c.breaker.Success()
			return err
		}
		if c.breaker.Failure() {
			c.m.breakerOpens.Inc()
		}
		lastErr = err
		attempt++
		if attempt >= c.cfg.MaxAttempts {
			break
		}
		c.retries.Add(1)
		c.m.retries.Inc()
		if err := c.cfg.Sleep(ctx, c.backoff.Delay(attempt-1, retryAfter(err))); err != nil {
			return err
		}
	}
	return fmt.Errorf("transport: %d attempts exhausted: %w", c.cfg.MaxAttempts, lastErr)
}

// isPermanent reports whether err is a server verdict that retrying
// identical bytes cannot change: a non-429 4xx. Network failures,
// timeouts, 429 and 5xx are transient.
func isPermanent(err error) bool {
	var apiErr *httpapi.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 400 && apiErr.Status < 500 && apiErr.Status != http.StatusTooManyRequests
	}
	return false
}

// downgradeCodec checks whether a permanent rejection is really a
// codec-negotiation failure (415 or codec_unsupported) while a
// non-JSON codec is configured. If so it stickily clears the codec —
// the caller holds drainMu, which serializes every sendBatch — and
// reports that the batch deserves one more attempt as JSON.
func (c *Client) downgradeCodec(err error) bool {
	if c.api.Codec == nil || c.api.Codec.ContentType() == httpapi.ContentTypeJSON {
		return false
	}
	var apiErr *httpapi.APIError
	if !errors.As(err, &apiErr) {
		return false
	}
	if apiErr.Code != httpapi.CodeCodecUnsupported && apiErr.Status != http.StatusUnsupportedMediaType {
		return false
	}
	c.cfg.Logger.Warn("transport: server refused codec, downgrading to json",
		"content_type", c.api.Codec.ContentType(), "err", err)
	c.api.Codec = nil
	return true
}

// ingestContentType names the media type batches are currently encoded
// with — the negotiated codec's, or the JSON default.
func (c *Client) ingestContentType() string {
	if c.api.Codec != nil {
		return c.api.Codec.ContentType()
	}
	return httpapi.ContentTypeJSON
}

// bodySnippet extracts a bounded slice of the server's response body
// from a rejection error, so the poison-drop log line shows what the
// server actually said.
func bodySnippet(err error) string {
	var apiErr *httpapi.APIError
	if !errors.As(err, &apiErr) {
		return ""
	}
	const maxSnippet = 200
	msg := apiErr.Message
	if len(msg) > maxSnippet {
		msg = msg[:maxSnippet] + "..."
	}
	return msg
}

// retryAfter extracts the server's Retry-After hint, if any.
func retryAfter(err error) time.Duration {
	var apiErr *httpapi.APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter
	}
	return 0
}

// Versions pulls versions created at or after since, with retries.
func (c *Client) Versions(ctx context.Context, since time.Time) ([]adapt.BNVersion, error) {
	var out []adapt.BNVersion
	err := c.retry(ctx, func(rctx context.Context) error {
		var err error
		out, err = c.api.VersionsContext(rctx, since)
		return err
	})
	return out, err
}

// Base pulls the current base model snapshot, with retries.
func (c *Client) Base(ctx context.Context) (*nn.NetSnapshot, error) {
	var out *nn.NetSnapshot
	err := c.retry(ctx, func(rctx context.Context) error {
		var err error
		out, err = c.api.BaseContext(rctx)
		return err
	})
	return out, err
}

// Analyze triggers an analysis/adaptation cycle, with retries. The
// cycle is idempotent-enough for at-least-once delivery: re-running a
// window re-derives the same causes from the same log.
func (c *Client) Analyze(ctx context.Context, req httpapi.AnalyzeRequest) (httpapi.AnalyzeResponse, error) {
	var out httpapi.AnalyzeResponse
	err := c.retry(ctx, func(rctx context.Context) error {
		var err error
		out, err = c.api.AnalyzeContext(rctx, req)
		return err
	})
	return out, err
}

// Status fetches service counters, with retries.
func (c *Client) Status(ctx context.Context) (httpapi.StatusResponse, error) {
	var out httpapi.StatusResponse
	err := c.retry(ctx, func(rctx context.Context) error {
		var err error
		out, err = c.api.StatusContext(rctx)
		return err
	})
	return out, err
}
