package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// discardLogger silences request lines in tests.
func discardLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

// TestHandlerErrorPaths table-tests the failure modes of every endpoint:
// malformed JSON, unknown fields, trailing garbage, wrong method, an
// encoded body, domain validation, and bad query parameters. Every failure must carry
// the structured envelope {"error":{"code":...,"message":...}} with the
// right stable code — including the 404/405 responses the mux itself
// generates.
func TestHandlerErrorPaths(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(7, 1))
	svc := cloud.NewService(base, cloud.DefaultConfig())
	h := NewServer(svc, WithLogger(discardLogger()))

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
		wantSubstr string
		encoding   string // Content-Encoding, when set
	}{
		{"ingest route removed post", "POST", "/v1/ingest", `{"entry":{"time":"2020-01-01T00:00:00Z","attrs":{}}}`, 404, CodeNotFound, "", ""},
		{"ingest route removed get", "GET", "/v1/ingest", "", 404, CodeNotFound, "", ""},

		{"batch malformed json", "POST", "/v1/ingest/batch", `[{]`, 400, CodeInvalidJSON, "decode", ""},
		{"batch unknown field", "POST", "/v1/ingest/batch", `{"rows":[]}`, 400, CodeInvalidJSON, "rows", ""},
		{"batch trailing data", "POST", "/v1/ingest/batch", `{"entries":[{"time":"2020-01-01T00:00:00Z","attrs":{}}]} trailing`, 400, CodeInvalidJSON, "trailing", ""},
		{"batch empty", "POST", "/v1/ingest/batch", `{"entries":[]}`, 400, CodeInvalidRequest, "at least one", ""},
		{"batch sample mismatch", "POST", "/v1/ingest/batch", `{"entries":[{"time":"2020-01-01T00:00:00Z","attrs":{}}],"samples":[[1],[2]]}`, 400, CodeInvalidRequest, "match", ""},
		{"batch entry missing attrs", "POST", "/v1/ingest/batch", `{"entries":[{"time":"2020-01-01T00:00:00Z"}]}`, 400, CodeInvalidRequest, "attrs", ""},
		{"batch wrong method", "GET", "/v1/ingest/batch", "", 405, CodeMethodNotAllowed, "", ""},
		{"batch sample width", "POST", "/v1/ingest/batch", `{"entries":[{"time":"2020-01-01T00:00:00Z","attrs":{}}],"samples":[[1,2,3]]}`, 400, CodeInvalidRequest, "the model takes 8", ""},
		{"batch gzip body", "POST", "/v1/ingest/batch", `{"entries":[{"time":"2020-01-01T00:00:00Z","attrs":{}}]}`, 415, CodeCodecUnsupported, "gzip", "gzip"},

		{"analyze malformed json", "POST", "/v1/analyze", `{`, 400, CodeInvalidJSON, "decode", ""},
		{"analyze unknown field", "POST", "/v1/analyze", `{"window":"1h"}`, 400, CodeInvalidJSON, "window", ""},
		{"analyze trailing data", "POST", "/v1/analyze", `{} {}`, 400, CodeInvalidJSON, "trailing", ""},
		{"analyze wrong method", "GET", "/v1/analyze", "", 405, CodeMethodNotAllowed, "", ""},

		{"diagnose malformed json", "POST", "/v1/diagnose", `nope`, 400, CodeInvalidJSON, "decode", ""},
		{"diagnose unknown field", "POST", "/v1/diagnose", `{"mode":"full"}`, 400, CodeInvalidJSON, "mode", ""},
		{"diagnose wrong method", "GET", "/v1/diagnose", "", 405, CodeMethodNotAllowed, "", ""},

		{"adapt malformed json", "POST", "/v1/adapt", `{"causes":}`, 400, CodeInvalidJSON, "decode", ""},
		{"adapt unknown field", "POST", "/v1/adapt", `{"causes":[],"force":true}`, 400, CodeInvalidJSON, "force", ""},
		{"adapt no causes", "POST", "/v1/adapt", `{"causes":[]}`, 400, CodeInvalidRequest, "at least one cause", ""},
		{"adapt wrong method", "GET", "/v1/adapt", "", 405, CodeMethodNotAllowed, "", ""},

		{"versions bad since", "GET", "/v1/versions?since=yesterday", "", 400, CodeInvalidRequest, "bad since", ""},
		{"versions wrong method", "POST", "/v1/versions", "", 405, CodeMethodNotAllowed, "", ""},
		{"deltas bad since", "GET", "/v1/deltas?since=bogus", "", 400, CodeInvalidRequest, "bad since", ""},
		{"deltas wrong method", "POST", "/v1/deltas", "", 405, CodeMethodNotAllowed, "", ""},
		{"refbn wrong method", "POST", "/v1/refbn", "", 405, CodeMethodNotAllowed, "", ""},
		{"base wrong method", "POST", "/v1/base", "", 405, CodeMethodNotAllowed, "", ""},
		{"status wrong method", "POST", "/v1/status", "", 405, CodeMethodNotAllowed, "", ""},
		{"metrics wrong method", "POST", "/metrics", "", 405, CodeMethodNotAllowed, "", ""},
		{"unknown route", "GET", "/v1/nothing", "", 404, CodeNotFound, "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var req *http.Request
			if tc.body != "" {
				req = httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
				req.Header.Set("Content-Type", "application/json")
			} else {
				req = httptest.NewRequest(tc.method, tc.path, nil)
			}
			if tc.encoding != "" {
				req.Header.Set("Content-Encoding", tc.encoding)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %q)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type %q, want application/json (body %q)", ct, rec.Body.String())
			}
			var env errorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
				t.Fatalf("body %q is not an error envelope (err %v)", rec.Body.String(), err)
			}
			if env.Error.Code != tc.wantCode {
				t.Fatalf("code %q, want %q (message %q)", env.Error.Code, tc.wantCode, env.Error.Message)
			}
			if tc.wantSubstr != "" && !strings.Contains(env.Error.Message, tc.wantSubstr) {
				t.Fatalf("message %q missing %q", env.Error.Message, tc.wantSubstr)
			}
		})
	}
}

// TestClientDecodesAPIError proves the client surfaces server failures
// as *APIError reachable through errors.As, with the stable code intact.
func TestClientDecodesAPIError(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(7, 1))
	svc := cloud.NewService(base, cloud.DefaultConfig())
	srv := httptest.NewServer(NewServer(svc, WithLogger(discardLogger())))
	defer srv.Close()

	c := NewClient(srv.URL)
	_, err := c.AdaptContext(context.Background(), AdaptRequest{})
	if err == nil {
		t.Fatal("expected rejection")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v (%T) is not an *APIError", err, err)
	}
	if apiErr.Status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", apiErr.Status)
	}
	if apiErr.Code != CodeInvalidRequest {
		t.Fatalf("code %q, want %q", apiErr.Code, CodeInvalidRequest)
	}
	if !strings.Contains(apiErr.Message, "at least one cause") {
		t.Fatalf("message %q missing cause hint", apiErr.Message)
	}
}

// TestDecodeAPIErrorFallback covers non-envelope bodies (proxies, raw
// http.Error output) degrading to CodeInternal.
func TestDecodeAPIErrorFallback(t *testing.T) {
	e := decodeAPIError(502, []byte("<html>bad gateway</html>"))
	if e.Code != CodeInternal || e.Status != 502 {
		t.Fatalf("got %+v", e)
	}
	if !strings.Contains(e.Message, "bad gateway") {
		t.Fatalf("message %q lost the body", e.Message)
	}
	e = decodeAPIError(503, nil)
	if e.Message == "" {
		t.Fatal("empty body should fall back to the status text")
	}
}

// TestDecodeJSONStrictness unit-tests the hardened decoder directly.
func TestDecodeJSONStrictness(t *testing.T) {
	type msg struct {
		A int `json:"a"`
	}
	cases := []struct {
		name  string
		input string
		ok    bool
	}{
		{"valid", `{"a":1}`, true},
		{"valid with whitespace", "  {\"a\":1}\n\t ", true},
		{"unknown field", `{"a":1,"b":2}`, false},
		{"trailing value", `{"a":1}{"a":2}`, false},
		{"trailing token", `{"a":1} x`, false},
		{"empty", ``, false},
		{"wrong type", `{"a":"one"}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m msg
			err := decodeJSON(strings.NewReader(tc.input), &m)
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

// TestParseRetryAfter pins both header forms the RFC allows —
// delta-seconds and HTTP-date — plus every degenerate input, all of
// which must degrade to 0 ("no hint") rather than a bogus delay.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		v    string
		want time.Duration
	}{
		{"empty", "", 0},
		{"integer seconds", "7", 7 * time.Second},
		{"zero seconds", "0", 0},
		{"negative seconds", "-3", 0},
		{"large seconds", "86400", 24 * time.Hour},
		{"http date future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http date past", now.Add(-time.Minute).Format(http.TimeFormat), 0},
		{"http date now", now.Format(http.TimeFormat), 0},
		{"rfc850 date", now.Add(30 * time.Second).Format("Monday, 02-Jan-06 15:04:05 MST"), 30 * time.Second},
		{"ansi c date", now.Add(45 * time.Second).Format(time.ANSIC), 45 * time.Second},
		{"garbage", "soon", 0},
		{"float seconds", "1.5", 0},
		{"seconds with spaces", " 5 ", 0},
		{"overflow-ish", "999999999999999999999999", 0},
		{"mixed", "5s", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := parseRetryAfter(tc.v, now); got != tc.want {
				t.Fatalf("parseRetryAfter(%q) = %v, want %v", tc.v, got, tc.want)
			}
		})
	}
}

// TestIngestBatchDurabilityFailureIs500: a WAL failure during batch
// ingest must surface as 500/internal — a transient server-side fault
// the transport will retry — never as a 400, which resilient clients
// treat as a poison batch and drop.
func TestIngestBatchDurabilityFailureIs500(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(7, 1))
	svc := cloud.NewService(base, cloud.DefaultConfig(),
		cloud.WithWAL(t.TempDir(), driftlog.WALOptions{}))
	if err := svc.WALErr(); err != nil {
		t.Fatalf("wal open: %v", err)
	}
	h := NewServer(svc, WithLogger(discardLogger()))
	svc.WAL().Sever() // the cloud "dies": durability is gone

	body := `{"entries":[{"time":"2026-01-01T00:00:00Z","attrs":{"weather":"snow"}}]}`
	req := httptest.NewRequest("POST", "/v1/ingest/batch", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %q)", rec.Code, rec.Body.String())
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("body %q is not an error envelope", rec.Body.String())
	}
	if env.Error.Code != CodeInternal {
		t.Fatalf("code %q, want %q", env.Error.Code, CodeInternal)
	}
	if svc.Log().Len() != 0 {
		t.Fatalf("refused batch landed in the log: %d rows", svc.Log().Len())
	}
}

// TestIngestBatchOversizedFrameIs400: a batch whose frame exceeds the WAL
// record bound is the batch's fault, not the server's — JSON samples grow
// about 4× on the way in ("0," is 2 bytes, a float64 8) — so it answers
// 400/invalid_request, which the transport drops as poison instead of
// retrying forever. The WAL stays healthy and the next batch is acked.
func TestIngestBatchOversizedFrameIs400(t *testing.T) {
	// 8,192 inputs wide, so the samples pass ingest's width check and the
	// WAL's frame bound is what refuses the batch.
	base := nn.NewClassifier(nn.ArchResNet18, 8192, 2, tensor.NewRand(7, 1))
	svc := cloud.NewService(base, cloud.DefaultConfig(),
		cloud.WithWAL(t.TempDir(), driftlog.WALOptions{}))
	if err := svc.WALErr(); err != nil {
		t.Fatalf("wal open: %v", err)
	}
	defer svc.Close()
	h := NewServer(svc, WithLogger(discardLogger()))
	post := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/ingest/batch", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	// 1,100 rows × 8,192 zeros: an 18 MB body, 72 MB of float64 samples.
	const rows = 1100
	entry := `{"time":"2026-01-01T00:00:00Z","attrs":{"weather":"snow"}}`
	sample := "[" + strings.Repeat("0,", 8191) + "0]"
	var b strings.Builder
	b.WriteString(`{"entries":[`)
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(entry)
	}
	b.WriteString(`],"samples":[`)
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sample)
	}
	b.WriteString(`]}`)
	rec := post(b.String())
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %.200q)", rec.Code, rec.Body.String())
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("body %q is not an error envelope", rec.Body.String())
	}
	if env.Error.Code != CodeInvalidRequest {
		t.Fatalf("code %q, want %q", env.Error.Code, CodeInvalidRequest)
	}
	if err := svc.WAL().Err(); err != nil {
		t.Fatalf("refusal poisoned the WAL: %v", err)
	}
	if rec := post(`{"entries":[` + entry + `]}`); rec.Code != http.StatusOK {
		t.Fatalf("ingest after a refusal: status %d (body %q)", rec.Code, rec.Body.String())
	}
	if n := svc.Log().Len(); n != 1 {
		t.Fatalf("log holds %d rows, want the 1 acked", n)
	}
}
