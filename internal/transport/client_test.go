package transport

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"nazar/internal/driftlog"
)

// fakeSleeper records every requested sleep and advances a fake clock
// instead of spending wall time — the retry loop runs at full speed
// while the test asserts the exact schedule it would have waited.
type fakeSleeper struct {
	mu    sync.Mutex
	clock *fakeClock
	slept []time.Duration
}

func (f *fakeSleeper) Sleep(ctx context.Context, d time.Duration) error {
	f.mu.Lock()
	f.slept = append(f.slept, d)
	f.clock.Advance(d)
	f.mu.Unlock()
	return ctx.Err()
}

func (f *fakeSleeper) Slept() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.slept...)
}

// ingestServer is a scriptable ingest endpoint: it answers each batch
// request with the next scripted status (0 = accept) and records every
// accepted entry.
type ingestServer struct {
	t  *testing.T
	mu sync.Mutex
	// script holds upcoming responses; empty means accept.
	script []int
	// retryAfter, when set, is attached to scripted 429s.
	retryAfter string
	accepted   []driftlog.Entry
	requests   int
}

func (s *ingestServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.requests++
		if len(s.script) > 0 {
			code := s.script[0]
			s.script = s.script[1:]
			if code != 0 {
				if code == http.StatusTooManyRequests && s.retryAfter != "" {
					w.Header().Set("Retry-After", s.retryAfter)
				}
				http.Error(w, "scripted failure", code)
				return
			}
		}
		var req struct {
			Entries []driftlog.Entry `json:"entries"`
			Samples [][]float64      `json:"samples"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			s.t.Errorf("ingestServer: bad body: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.accepted = append(s.accepted, req.Entries...)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"accepted":` + strconv.Itoa(len(req.Entries)) + `}`))
	})
}

func (s *ingestServer) acceptedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.accepted)
}

func (s *ingestServer) requestCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests
}

// newTestClient wires a client to the scripted server on a fake clock
// with zero-jitter backoff, so every delay is exact and no wall time
// is slept.
func newTestClient(t *testing.T, srv *httptest.Server, mutate func(*Config)) (*Client, *fakeSleeper) {
	t.Helper()
	clock := newFakeClock()
	sleeper := &fakeSleeper{clock: clock}
	cfg := Config{
		MaxBatch:       4,
		FlushInterval:  time.Hour, // tests flush explicitly
		RequestTimeout: 5 * time.Second,
		MaxAttempts:    4,
		SpoolCapacity:  64,
		Backoff:        BackoffConfig{Base: 100 * time.Millisecond, Max: 10 * time.Second, Factor: 2, Jitter: -1},
		Breaker:        BreakerConfig{Threshold: 100, Cooldown: time.Minute},
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		Now:            clock.Now,
		Sleep:          sleeper.Sleep,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c := NewClient(srv.URL, WithConfig(cfg))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Close(ctx)
	})
	return c, sleeper
}

// TestClientRetriesThenDelivers: transient 500s are retried on the
// exact exponential schedule and the batch is delivered once.
func TestClientRetriesThenDelivers(t *testing.T) {
	srv := &ingestServer{t: t, script: []int{500, 500, 0}}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	c, sleeper := newTestClient(t, ts, nil)
	if err := c.Report(entryN(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := srv.acceptedCount(); got != 1 {
		t.Fatalf("server accepted %d entries, want 1", got)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	got := sleeper.Slept()
	if len(got) != len(want) {
		t.Fatalf("slept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	st := c.Stats()
	if st.Acked != 1 || st.Retries != 2 || st.SpoolDepth != 0 {
		t.Fatalf("stats = %+v, want 1 acked, 2 retries, empty spool", st)
	}
}

// TestClientHonorsRetryAfter: a 429 with Retry-After: 3 overrides the
// 100ms computed backoff with exactly 3s.
func TestClientHonorsRetryAfter(t *testing.T) {
	srv := &ingestServer{t: t, script: []int{429, 0}, retryAfter: "3"}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	c, sleeper := newTestClient(t, ts, nil)
	if err := c.Report(entryN(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got := sleeper.Slept()
	if len(got) != 1 || got[0] != 3*time.Second {
		t.Fatalf("slept %v, want exactly [3s]", got)
	}
}

// TestClientBreakerOpensAndRecovers: consecutive failures trip the
// breaker (fail-fast, no request reaches the wire), the cooldown wait
// is served from the breaker clock, and the half-open probe closes it
// again once the server recovers.
func TestClientBreakerOpensAndRecovers(t *testing.T) {
	srv := &ingestServer{t: t, script: []int{500, 500, 500}}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var c *Client
	c, _ = newTestClient(t, ts, func(cfg *Config) {
		cfg.Breaker = BreakerConfig{Threshold: 3, Cooldown: time.Minute}
		cfg.MaxAttempts = 6
	})
	if err := c.Report(entryN(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	st := c.Stats()
	if st.BreakerOpens != 1 {
		t.Fatalf("breaker opened %d times, want 1", st.BreakerOpens)
	}
	if st.Acked != 1 {
		t.Fatalf("acked %d, want 1 (delivered by half-open probe)", st.Acked)
	}
	// 3 wire failures + 1 success: the breaker opened once, so exactly
	// one cooldown-length wait must appear among the sleeps.
	if got := srv.requestCount(); got != 4 {
		t.Fatalf("server saw %d requests, want 4 (fail-fast while open)", got)
	}
}

// TestClientDropsPoisonBatch: a permanent 4xx rejection drops the
// batch (counted, reported via OnDrop) instead of wedging the spool.
func TestClientDropsPoisonBatch(t *testing.T) {
	srv := &ingestServer{t: t, script: []int{400}}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var droppedMu sync.Mutex
	var droppedReasons []string
	c, sleeper := newTestClient(t, ts, func(cfg *Config) {
		cfg.OnDrop = func(e driftlog.Entry, reason string) {
			droppedMu.Lock()
			droppedReasons = append(droppedReasons, reason)
			droppedMu.Unlock()
		}
	})
	if err := c.Report(entryN(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("Flush after permanent rejection should not error, got %v", err)
	}
	st := c.Stats()
	if st.Rejected != 1 || st.Acked != 0 || st.SpoolDepth != 0 {
		t.Fatalf("stats = %+v, want 1 rejected, 0 acked, empty spool", st)
	}
	if len(sleeper.Slept()) != 0 {
		t.Fatalf("permanent errors must not back off, slept %v", sleeper.Slept())
	}
	droppedMu.Lock()
	defer droppedMu.Unlock()
	if len(droppedReasons) != 1 || droppedReasons[0] != "rejected" {
		t.Fatalf("OnDrop reasons = %v, want [rejected]", droppedReasons)
	}
}

// TestClientSpoolOverflowAcksOnlySurvivors: overflowing the spool
// before connectivity returns drops the oldest entries; after a flush,
// acked + dropped == reported and OnAck saw exactly the survivors.
func TestClientSpoolOverflowAcksOnlySurvivors(t *testing.T) {
	srv := &ingestServer{t: t}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var ackMu sync.Mutex
	acked := map[string]bool{}
	c, _ := newTestClient(t, ts, func(cfg *Config) {
		cfg.SpoolCapacity = 8
		// MaxBatch above the push count keeps the background worker
		// asleep (nothing reaches the wake threshold), so the overflow
		// sequence is fully deterministic.
		cfg.MaxBatch = 32
		cfg.OnAck = func(entries []driftlog.Entry) {
			ackMu.Lock()
			for _, e := range entries {
				acked[e.Attrs["n"]] = true
			}
			ackMu.Unlock()
		}
	})
	for i := 0; i < 20; i++ {
		if err := c.Report(entryN(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	st := c.Stats()
	if st.Acked != 8 || st.SpoolDropped != 12 {
		t.Fatalf("acked %d dropped %d, want 8 acked (capacity) and 12 dropped", st.Acked, st.SpoolDropped)
	}
	if st.SpoolDepth != 0 {
		t.Fatalf("spool depth %d after flush, want 0", st.SpoolDepth)
	}
	ackMu.Lock()
	defer ackMu.Unlock()
	if len(acked) != 8 {
		t.Fatalf("OnAck saw %d unique entries, want 8", len(acked))
	}
	for i := 12; i < 20; i++ {
		if !acked[strconv.Itoa(i)] {
			t.Fatalf("newest entry %d was not acked; acked set: %v", i, acked)
		}
	}
}

// TestClientCloseLeaksNoGoroutines: Close stops the background worker;
// repeated create/close cycles leave the goroutine count where it
// started.
func TestClientCloseLeaksNoGoroutines(t *testing.T) {
	srv := &ingestServer{t: t}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		clock := newFakeClock()
		sleeper := &fakeSleeper{clock: clock}
		c := NewClient(ts.URL, WithConfig(Config{
			FlushInterval: time.Millisecond,
			// Keep-alives would park connection goroutines in the shared
			// pool and fail the leak accounting below.
			HTTPTransport: &http.Transport{DisableKeepAlives: true},
			Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
			Now:           clock.Now,
			Sleep:         sleeper.Sleep,
		}))
		if err := c.Report(entryN(i), nil); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := c.Close(ctx); err != nil {
			t.Fatalf("Close: %v", err)
		}
		cancel()
		if err := c.Report(entryN(0), nil); err != ErrClosed {
			t.Fatalf("Report after Close = %v, want ErrClosed", err)
		}
		// Close must have drained the spool before returning.
		if st := c.Stats(); st.SpoolDepth != 0 {
			t.Fatalf("cycle %d: spool depth %d after Close", i, st.SpoolDepth)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
	if got := srv.acceptedCount(); got != 10 {
		t.Fatalf("server accepted %d entries, want 10 (one per cycle)", got)
	}
}

// TestClientCancelledFlush: a cancelled context aborts the retry loop
// promptly and leaves undelivered entries spooled (no loss, no ack).
func TestClientCancelledFlush(t *testing.T) {
	srv := &ingestServer{t: t, script: []int{500}}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	c, _ := newTestClient(t, ts, nil)
	if err := c.Report(entryN(1), nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Flush(ctx); err == nil {
		t.Fatal("Flush with cancelled context succeeded, want error")
	}
	if st := c.Stats(); st.Acked != 0 || st.SpoolDepth != 1 {
		t.Fatalf("stats = %+v, want entry still spooled and unacked", st)
	}
	// The aborted flush lost nothing: a later flush (here riding through
	// one scripted 500) delivers the spooled entry. Draining now also
	// keeps the Cleanup Close from retrying against a torn-down server.
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("recovery Flush: %v", err)
	}
	if st := c.Stats(); st.Acked != 1 || st.SpoolDepth != 0 {
		t.Fatalf("stats after recovery = %+v, want delivered", st)
	}
}
