package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"nazar/internal/cloud"
	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/tensor"
)

// TestRecoverPanicEnvelope proves a panicking handler yields the 500
// JSON envelope with code "internal", the panic counter increments, and
// the in-flight gauge returns to zero.
func TestRecoverPanicEnvelope(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewHTTPMetrics(reg)
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}), Recover(discardLogger()), m.Middleware())

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/panic", nil))

	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("body %q is not an error envelope", rec.Body.String())
	}
	if env.Error.Code != CodeInternal {
		t.Fatalf("code %q, want %q", env.Error.Code, CodeInternal)
	}
	if got := m.panics.Value(); got != 1 {
		t.Fatalf("panics counter %d, want 1", got)
	}
	if got := m.inFlight.Value(); got != 0 {
		t.Fatalf("in-flight gauge %d after request, want 0", got)
	}
	if got := m.byClass[5].Value(); got != 1 {
		t.Fatalf("5xx counter %d, want 1", got)
	}
}

// TestRecoverAfterHeadersSent proves a panic after the header is out
// does not attempt a second WriteHeader (the recorder swallows it).
func TestRecoverAfterHeadersSent(t *testing.T) {
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("late boom")
	}), Recover(discardLogger()))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/late", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want the already-sent 200", rec.Code)
	}
}

// TestInFlightGauge holds a request open and watches the gauge rise to
// one and fall back to zero.
func TestInFlightGauge(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewHTTPMetrics(reg)
	entered := make(chan struct{})
	release := make(chan struct{})
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusNoContent)
	}), m.Middleware())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/slow", nil))
	}()
	<-entered
	if got := m.inFlight.Value(); got != 1 {
		t.Fatalf("in-flight gauge %d mid-request, want 1", got)
	}
	close(release)
	wg.Wait()
	if got := m.inFlight.Value(); got != 0 {
		t.Fatalf("in-flight gauge %d after request, want 0", got)
	}
	if got := m.requests.Value(); got != 1 {
		t.Fatalf("requests counter %d, want 1", got)
	}
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), "nazar_http_request_seconds_count 1\n") {
		t.Fatalf("latency histogram did not observe exactly one request:\n%s", expo.String())
	}
}

// TestStatusRecorderPassthrough checks JSON error responses are not
// rewritten by the 404/405 interception.
func TestStatusRecorderPassthrough(t *testing.T) {
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound, "custom not found")
	}), Recover(discardLogger()))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if !strings.Contains(rec.Body.String(), "custom not found") {
		t.Fatalf("handler envelope was rewritten: %q", rec.Body.String())
	}
}

// TestServerMetricsEndpoint drives a request through the full server and
// checks /metrics exposes the request families plus the service gauges
// when server and service share a registry.
func TestServerMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(7, 1))
	svc := cloud.NewService(base, cloud.DefaultConfig(), cloud.WithObserver(reg))
	h := NewServer(svc, WithRegistry(reg), WithLogger(discardLogger()))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/status", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status request failed: %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE nazar_http_requests_total counter",
		`nazar_http_responses_total{class="2xx"} 1`,
		"nazar_http_request_seconds_bucket",
		"nazar_http_in_flight 1", // the /metrics request itself
		"# TYPE nazar_ingest_entries_total counter",
		"nazar_driftlog_rows 0",
		"nazar_samples_retained 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q\n%s", want, body)
		}
	}
}
