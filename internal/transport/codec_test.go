package transport

import (
	"bytes"
	"context"
	"log/slog"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/httpapi"
	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// TestCodecRefusalIsPermanent: a client set to ship JSON bodies meets the
// ingest route, which takes NZB1 frames only. Its 415 is a permanent
// rejection like any 4xx: the batch is dropped as poison — counted,
// reported to OnDrop, logged with the content type it went as — after one
// request, with no retry and no re-send in another codec, and the store
// holds no row.
func TestCodecRefusalIsPermanent(t *testing.T) {
	svc := cloud.NewService(nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(7, 1)), cloud.DefaultConfig())
	api := httpapi.NewServer(svc, httpapi.WithLogger(slog.New(slog.DiscardHandler)))
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		api.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var logBuf bytes.Buffer
	var logMu sync.Mutex
	var dropped []string
	clock := newFakeClock()
	c := NewClient(ts.URL,
		WithCodec(httpapi.JSONCodec{}),
		WithConfig(Config{
			MaxBatch:      4,
			FlushInterval: time.Hour,
			Logger:        slog.New(slog.NewTextHandler(lockedWriter{&logMu, &logBuf}, nil)),
			OnDrop:        func(_ driftlog.Entry, reason string) { dropped = append(dropped, reason) },
			Now:           clock.Now,
			Sleep:         (&fakeSleeper{clock: clock}).Sleep,
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
	if st := c.Stats(); st.Rejected != 3 || st.Acked != 0 || st.Retries != 0 || st.SpoolDepth != 0 {
		t.Fatalf("stats = %+v, want 3 rejected, none acked, retried or spooled", st)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("%d requests, want the 1 the route refused", n)
	}
	if !slices.Equal(dropped, []string{"rejected", "rejected", "rejected"}) {
		t.Fatalf("OnDrop reasons %q, want 3 rejected", dropped)
	}
	logMu.Lock()
	logs := logBuf.String()
	logMu.Unlock()
	for _, want := range []string{"batch rejected", "content_type=" + httpapi.ContentTypeJSON, httpapi.CodeCodecUnsupported} {
		if !strings.Contains(logs, want) {
			t.Fatalf("rejection log missing %q:\n%s", want, logs)
		}
	}
	if n := svc.Log().Len(); n != 0 {
		t.Fatalf("refused batch landed %d rows", n)
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
