package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nazar/internal/driftlog"
	"nazar/internal/httpapi"
)

// legacyServer mimics a cloud that predates the binary codec: any
// non-JSON Content-Type gets the 415 + codec_unsupported envelope a
// real httpapi server would emit, JSON is accepted normally.
type legacyServer struct {
	mu       sync.Mutex
	accepted int
	refused  int
}

func (s *legacyServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ct := r.Header.Get("Content-Type")
		if ct != "" && ct != "application/json" {
			s.mu.Lock()
			s.refused++
			s.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnsupportedMediaType)
			_, _ = w.Write([]byte(`{"error":{"code":"codec_unsupported","message":"httpapi: unsupported content type"}}`))
			return
		}
		var req struct {
			Entries []driftlog.Entry `json:"entries"`
			Samples [][]float64      `json:"samples"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		s.accepted += len(req.Entries)
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"accepted":` + strconv.Itoa(len(req.Entries)) + `}`))
	})
}

// TestCodecDowngradeOnUnsupported: a default client (binary frames)
// talking to a JSON-only server — a new device meeting an old cloud —
// must not poison-drop the batch: it downgrades to JSON stickily and
// re-delivers the same entries.
func TestCodecDowngradeOnUnsupported(t *testing.T) {
	srv := &legacyServer{}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var logBuf bytes.Buffer
	var logMu sync.Mutex
	clock := newFakeClock()
	sleeper := &fakeSleeper{clock: clock}
	c := NewClient(ts.URL,
		WithConfig(Config{
			MaxBatch:       4,
			FlushInterval:  time.Hour,
			RequestTimeout: 5 * time.Second,
			MaxAttempts:    4,
			SpoolCapacity:  64,
			Backoff:        BackoffConfig{Base: time.Millisecond, Max: 10 * time.Millisecond, Factor: 2, Jitter: -1},
			Breaker:        BreakerConfig{Threshold: 100, Cooldown: time.Minute},
			Logger:         slog.New(slog.NewTextHandler(lockedWriter{&logMu, &logBuf}, nil)),
			Now:            clock.Now,
			Sleep:          sleeper.Sleep,
		}),
	)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Close(ctx)
	}()

	for i := 0; i < 3; i++ {
		if err := c.Report(entryN(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	srv.mu.Lock()
	accepted, refused := srv.accepted, srv.refused
	srv.mu.Unlock()
	if refused == 0 {
		t.Fatal("server never saw the binary codec; test is vacuous")
	}
	if accepted != 3 {
		t.Fatalf("server accepted %d entries after downgrade, want 3", accepted)
	}
	st := c.Stats()
	if st.Rejected != 0 {
		t.Fatalf("downgrade counted %d rejected entries, want 0", st.Rejected)
	}
	if ct := c.API().Codec.ContentType(); ct != httpapi.ContentTypeJSON {
		t.Fatalf("codec is %q after downgrade; next batch would 415 again", ct)
	}
	logMu.Lock()
	logs := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logs, "downgrading to json") || !strings.Contains(logs, "application/x-nazar-batch") {
		t.Fatalf("downgrade not logged with the refused content type:\n%s", logs)
	}

	// Subsequent batches go straight to JSON: refused count stays put.
	if err := c.Report(entryN(9), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	refused2 := srv.refused
	srv.mu.Unlock()
	if refused2 != refused {
		t.Fatalf("client retried the refused codec (%d -> %d refusals)", refused, refused2)
	}
}

// TestClientShipsBinaryByDefault: a client built without WithCodec
// ships NZB1 frames, and they decode to exactly what was reported —
// entries and sample bits, sample-less rows included.
func TestClientShipsBinaryByDefault(t *testing.T) {
	srv := &ingestServer{t: t}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	c, _ := newTestClient(t, ts, nil)

	t0 := time.Date(2020, 1, 15, 6, 0, 0, 123, time.UTC)
	var entries []driftlog.Entry
	var samples [][]float64
	for i := 0; i < 6; i++ {
		e := entryN(i)
		e.Time, e.Drift, e.SampleID = t0.Add(time.Duration(i)*time.Minute), i%2 == 0, int64(i)
		var sample []float64
		if i%3 != 1 {
			sample = []float64{float64(i), math.Copysign(0, -1), math.NaN(), math.Inf(-1), math.SmallestNonzeroFloat64}
		}
		entries, samples = append(entries, e), append(samples, sample)
		if err := c.Report(e, sample); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, ct := range srv.contentTypes {
		if ct != httpapi.ContentTypeBinary {
			t.Fatalf("batch shipped as %q, want %q", ct, httpapi.ContentTypeBinary)
		}
	}
	if len(srv.accepted) != len(entries) {
		t.Fatalf("server decoded %d entries, want %d", len(srv.accepted), len(entries))
	}
	for i, want := range entries {
		got := srv.accepted[i]
		if !got.Time.Equal(want.Time) || got.Drift != want.Drift || got.SampleID != want.SampleID || !maps.Equal(got.Attrs, want.Attrs) {
			t.Errorf("entry %d: got %+v, want %+v", i, got, want)
		}
		if len(srv.samples[i]) != len(samples[i]) {
			t.Fatalf("sample %d: got %d values, want %d", i, len(srv.samples[i]), len(samples[i]))
		}
		for j, v := range samples[i] {
			if got := srv.samples[i][j]; math.Float64bits(got) != math.Float64bits(v) {
				t.Errorf("sample %d[%d]: got bits %#x, want %#x", i, j, math.Float64bits(got), math.Float64bits(v))
			}
		}
	}
}

// TestRejectionLogDetail: a poison-drop's error log must name the
// content type the batch was sent as and quote a snippet of the
// server's response body.
func TestRejectionLogDetail(t *testing.T) {
	var sent atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sent.Store(r.Header.Get("Content-Type"))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":{"code":"invalid_request","message":"httpapi: entry 0 requires attrs"}}`))
	}))
	defer ts.Close()

	var logBuf bytes.Buffer
	var logMu sync.Mutex
	c, _ := newTestClient(t, ts, func(cfg *Config) {
		cfg.Logger = slog.New(slog.NewTextHandler(lockedWriter{&logMu, &logBuf}, nil))
	})

	if err := c.Report(entryN(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if st := c.Stats(); st.Rejected != 1 {
		t.Fatalf("stats = %+v, want 1 rejected", st)
	}
	logMu.Lock()
	logs := logBuf.String()
	logMu.Unlock()
	for _, want := range []string{"batch rejected", "content_type=" + sent.Load().(string), "entry 0 requires attrs"} {
		if !strings.Contains(logs, want) {
			t.Fatalf("rejection log missing %q:\n%s", want, logs)
		}
	}
}

// lockedWriter serializes concurrent slog writes from the worker and
// the drain path.
type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}
