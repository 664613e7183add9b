// Package httpapi exposes the cloud service over HTTP, and provides the
// matching device-side client — the distributed deployment mode of the
// system (the paper's devices report to AWS over an API; here the
// "cloud" is a nazard process).
//
// Endpoints:
//
//	POST /v1/ingest/batch  — report drift-log entries (+ optional samples): the one write path
//	POST /v1/analyze       — trigger one analysis/adaptation cycle
//	POST /v1/diagnose      — analysis only (manual mode)
//	POST /v1/adapt         — adapt operator-selected causes (manual mode)
//	GET  /v1/versions      — pull BN versions (?since=RFC3339)
//	GET  /v1/deltas        — pull delta-compressed versions
//	GET  /v1/refbn         — pull the pinned delta-reference BN snapshot
//	GET  /v1/base          — pull the full current base model snapshot
//	GET  /v1/status        — service counters
//	GET  /metrics          — Prometheus text exposition (internal/obs)
//	GET  /debug/pprof/     — runtime profiles (net/http/pprof)
//
// Every non-2xx JSON response carries the structured error envelope
// {"error":{"code":"...","message":"..."}} (see errors.go for the code
// vocabulary); the Client surfaces it as *APIError. Handlers honor
// request-context cancellation: an abandoned /v1/analyze aborts the
// in-flight window (mining, pruning and adaptation fan-out included).
package httpapi

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/rca"
)

// IngestBatchRequest is the JSON body of POST /v1/ingest/batch: one
// round-trip carrying many reports. Samples, when present, must be the
// same length as Entries (nil rows mean "no sample for this entry").
type IngestBatchRequest struct {
	Entries []driftlog.Entry `json:"entries"`
	Samples [][]float64      `json:"samples,omitempty"`
}

// IngestBatchResponse acknowledges a batch.
type IngestBatchResponse struct {
	Accepted int `json:"accepted"`
}

// AnalyzeRequest is the body of POST /v1/analyze. Zero times mean an
// unbounded window; Now defaults to the server clock.
type AnalyzeRequest struct {
	From time.Time `json:"from,omitempty"`
	To   time.Time `json:"to,omitempty"`
	Now  time.Time `json:"now,omitempty"`
}

// AnalyzeResponse summarizes one cycle.
type AnalyzeResponse struct {
	Causes     []string `json:"causes"`
	CauseKeys  []string `json:"cause_keys"` // rca.Cause.Key of each of Causes: a key tells causes apart, a name may not
	VersionIDs []string `json:"version_ids"`
	LogRows    int      `json:"log_rows"`
	RCAMillis  int64    `json:"rca_ms"`
	AdaptMs    int64    `json:"adapt_ms"`
}

// VersionsResponse is the body of GET /v1/versions.
type VersionsResponse struct {
	Versions []adapt.BNVersion `json:"versions"`
}

// DiagnoseResponse is the body of POST /v1/diagnose: the full causes, so
// the operator can inspect them and submit a subset to /v1/adapt.
type DiagnoseResponse struct {
	Causes []rca.Cause `json:"causes"`
}

// AdaptRequest is the body of POST /v1/adapt (manual mode): adapt only
// the given causes over the window.
type AdaptRequest struct {
	Causes []rca.Cause `json:"causes"`
	From   time.Time   `json:"from,omitempty"`
	To     time.Time   `json:"to,omitempty"`
	Now    time.Time   `json:"now,omitempty"`
}

// DeltaVersion is one version in delta-compressed form: the quantized BN
// diff against the pinned reference (GET /v1/refbn), gob-encoded and
// base64-carried in JSON. It is ~4× smaller on the wire than the full
// snapshot.
type DeltaVersion struct {
	ID        string    `json:"id"`
	Cause     rca.Cause `json:"cause"`
	CreatedAt time.Time `json:"created_at"`
	Delta     []byte    `json:"delta"` // gob(adapt.BNDelta), base64 via JSON
}

// DeltasResponse is the body of GET /v1/deltas.
type DeltasResponse struct {
	Versions []DeltaVersion `json:"versions"`
}

// StatusResponse is the body of GET /v1/status.
type StatusResponse struct {
	LogRows  int `json:"log_rows"`
	Samples  int `json:"samples"`
	Versions int `json:"versions"`
}

// statusClientClosedRequest reports a request abandoned by the caller
// (nginx's non-standard but widely understood 499).
const statusClientClosedRequest = 499

// Server adapts a cloud.Service to HTTP. Every request flows through
// the middleware chain (panic recovery → request log → metrics) before
// reaching the mux.
type Server struct {
	svc     *cloud.Service
	mux     *http.ServeMux
	handler http.Handler
	reg     *obs.Registry
	logger  *slog.Logger
	metrics *HTTPMetrics
}

// ServerOption customizes the server.
type ServerOption func(*Server)

// WithRegistry serves /metrics from the given registry instead of a
// private one — pass the same registry to cloud.WithObserver and
// device.NewMetrics to expose the whole pipeline on one endpoint.
func WithRegistry(reg *obs.Registry) ServerOption {
	return func(s *Server) {
		if reg != nil {
			s.reg = reg
		}
	}
}

// WithLogger sets the structured logger for request lines and panic
// reports (defaults to slog.Default).
func WithLogger(logger *slog.Logger) ServerOption {
	return func(s *Server) {
		if logger != nil {
			s.logger = logger
		}
	}
}

// NewServer wraps the service.
func NewServer(svc *cloud.Service, opts ...ServerOption) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux(), logger: slog.Default()}
	for _, opt := range opts {
		opt(s)
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.metrics = NewHTTPMetrics(s.reg)

	s.mux.HandleFunc("POST /v1/ingest/batch", s.ingest)
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/diagnose", s.handleDiagnose)
	s.mux.HandleFunc("POST /v1/adapt", s.handleAdapt)
	s.mux.HandleFunc("GET /v1/versions", s.handleVersions)
	s.mux.HandleFunc("GET /v1/deltas", s.handleDeltas)
	s.mux.HandleFunc("GET /v1/refbn", s.handleRefBN)
	s.mux.HandleFunc("GET /v1/base", s.handleBase)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)

	s.mux.Handle("GET /metrics", s.reg.Handler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	s.handler = Chain(s.mux,
		Recover(s.logger),
		Logging(s.logger),
		s.metrics.Middleware(),
	)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// maxBodyBytes bounds control-plane request bodies (a manual adapt
// request with many causes stays far below this). Ingest batches carry
// up to maxBatchEntries samples and get a larger cap.
const (
	maxBodyBytes      = 4 << 20
	maxBatchBodyBytes = 64 << 20
	// maxBatchEntries bounds one batch so a single request cannot pin
	// unbounded memory server-side.
	maxBatchEntries = 4096
)

// writeServiceError maps a service-layer failure onto the envelope: a
// cancelled request context becomes 499/canceled, everything else is a
// 500/internal.
func writeServiceError(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil {
		writeError(w, statusClientClosedRequest, CodeCanceled, err.Error())
		return
	}
	writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
}

// ingest serves POST /v1/ingest/batch: negotiate the codec, decode the
// body to a batch, validate it, hand its columnar form to the service
// and map the outcome.
func (s *Server) ingest(w http.ResponseWriter, r *http.Request) {
	codec, ok := negotiateCodec(w, r)
	if !ok {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBodyBytes)
	frame, err := codec.DecodeBatch(sizedBody{r.Body, r.ContentLength}, maxBatchEntries)
	if err != nil {
		writeDecodeError(w, codec, err)
		return
	}
	rows := frame.Rows()
	if rows == 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "httpapi: ingest requires at least one entry")
		return
	}
	if rows > maxBatchEntries {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			fmt.Sprintf("httpapi: ingest exceeds %d entries", maxBatchEntries))
		return
	}
	for i := range frame.Entries {
		if frame.Entries[i].Attrs == nil {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest,
				fmt.Sprintf("httpapi: entry %d requires attrs", i))
			return
		}
	}
	if err := s.svc.IngestColumnsContext(r.Context(), frame.columns(), nil); err != nil {
		// A durability failure is the server's problem, not the batch's:
		// it must surface as a 5xx so the transport retries the batch
		// (against a restarted, replayed service) instead of dropping it
		// as poison the way it treats 4xx.
		if r.Context().Err() != nil || errors.Is(err, cloud.ErrDurability) {
			writeServiceError(w, r, err)
		} else {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		}
		return
	}
	writeJSON(w, IngestBatchResponse{Accepted: rows})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req AnalyzeRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeDecodeError(w, JSONCodec{}, err)
		return
	}
	now := req.Now
	if now.IsZero() {
		now = time.Now().UTC()
	}
	res, err := s.svc.RunWindowContext(r.Context(), req.From, req.To, now)
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	resp := AnalyzeResponse{
		LogRows:   res.LogRows,
		RCAMillis: res.RCADuration.Milliseconds(),
		AdaptMs:   res.AdaptDuration.Milliseconds(),
	}
	for _, c := range res.Causes {
		resp.Causes, resp.CauseKeys = append(resp.Causes, c.String()), append(resp.CauseKeys, c.Key())
	}
	for _, v := range res.Versions {
		resp.VersionIDs = append(resp.VersionIDs, v.ID)
	}
	writeJSON(w, resp)
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req AnalyzeRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeDecodeError(w, JSONCodec{}, err)
		return
	}
	now := req.Now
	if now.IsZero() {
		now = time.Now().UTC()
	}
	causes, err := s.svc.DiagnoseContext(r.Context(), req.From, req.To, now)
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeJSON(w, DiagnoseResponse{Causes: causes})
}

func (s *Server) handleAdapt(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req AdaptRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeDecodeError(w, JSONCodec{}, err)
		return
	}
	if len(req.Causes) == 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "httpapi: adapt requires at least one cause")
		return
	}
	now := req.Now
	if now.IsZero() {
		now = time.Now().UTC()
	}
	versions, err := s.svc.AdaptCausesContext(r.Context(), req.Causes, req.From, req.To, now)
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeJSON(w, VersionsResponse{Versions: versions})
}

// sinceParam parses the optional ?since=RFC3339 query parameter.
func sinceParam(w http.ResponseWriter, r *http.Request) (time.Time, bool) {
	raw := r.URL.Query().Get("since")
	if raw == "" {
		return time.Time{}, true
	}
	t, err := time.Parse(time.RFC3339, raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Sprintf("httpapi: bad since: %v", err))
		return time.Time{}, false
	}
	return t, true
}

func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	since, ok := sinceParam(w, r)
	if !ok {
		return
	}
	writeJSON(w, VersionsResponse{Versions: s.svc.VersionsSince(since)})
}

func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	since, ok := sinceParam(w, r)
	if !ok {
		return
	}
	ref := s.svc.ReferenceBN()
	var resp DeltasResponse
	for _, v := range s.svc.VersionsSince(since) {
		delta, err := adapt.DiffBN(ref, v.Snapshot)
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
			return
		}
		data, err := delta.Encode()
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
			return
		}
		resp.Versions = append(resp.Versions, DeltaVersion{
			ID: v.ID, Cause: v.Cause, CreatedAt: v.CreatedAt, Delta: data,
		})
	}
	writeJSON(w, resp)
}

func (s *Server) handleRefBN(w http.ResponseWriter, r *http.Request) {
	data, err := s.svc.ReferenceBN().Encode()
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (s *Server) handleBase(w http.ResponseWriter, r *http.Request) {
	snap := nn.CaptureNet(s.svc.Base())
	data, err := snap.Encode()
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, StatusResponse{
		LogRows:  s.svc.Log().Len(),
		Samples:  s.svc.Samples().Len(),
		Versions: len(s.svc.VersionsSince(time.Time{})),
	})
}

func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("httpapi: decode: %w", err)
	}
	// Exactly one JSON value per body: trailing garbage is an error, not
	// silently ignored.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return fmt.Errorf("httpapi: decode: trailing data after JSON value")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// Client is the device-side API client. Every call takes a context for
// request cancellation. Non-2xx responses surface as *APIError (match
// with errors.As).
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Codec selects the ingest wire encoding: BinaryCodec{} (the drift
	// log's NZB1 frame), which NewClient sets and nil also means, or
	// JSONCodec{}. Only /v1/ingest/batch negotiates; control-plane calls
	// stay JSON.
	Codec Codec
}

// NewClient returns a client for the given server URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: &http.Client{Timeout: 30 * time.Second}, Codec: BinaryCodec{}}
}

// IngestBatchContext reports entries in one round-trip. samples may be
// nil, or the same length as entries with nil rows for sample-less
// entries. The body is rendered by the configured Codec (binary by
// default); the acknowledgement is always JSON.
func (c *Client) IngestBatchContext(ctx context.Context, entries []driftlog.Entry, samples [][]float64) (int, error) {
	codec := cmp.Or[Codec](c.Codec, BinaryCodec{})
	data, err := codec.EncodeBatch(&BatchFrame{Entries: entries, Samples: samples})
	if err != nil {
		return 0, err
	}
	var resp IngestBatchResponse
	err = c.postRaw(ctx, "/v1/ingest/batch", codec.ContentType(), data, &resp)
	return resp.Accepted, err
}

// DiagnoseContext runs analysis only (manual mode) and returns the full
// causes.
func (c *Client) DiagnoseContext(ctx context.Context, req AnalyzeRequest) ([]rca.Cause, error) {
	var resp DiagnoseResponse
	err := c.post(ctx, "/v1/diagnose", req, &resp)
	return resp.Causes, err
}

// AdaptContext requests adaptation of the selected causes (manual mode).
// Cancelling aborts the server-side adaptation fan-out, not just the HTTP
// wait.
func (c *Client) AdaptContext(ctx context.Context, req AdaptRequest) ([]adapt.BNVersion, error) {
	var resp VersionsResponse
	err := c.post(ctx, "/v1/adapt", req, &resp)
	return resp.Versions, err
}

// AnalyzeContext triggers an analysis/adaptation cycle. Cancelling aborts
// the in-flight window server-side.
func (c *Client) AnalyzeContext(ctx context.Context, req AnalyzeRequest) (AnalyzeResponse, error) {
	var resp AnalyzeResponse
	err := c.post(ctx, "/v1/analyze", req, &resp)
	return resp, err
}

// VersionsContext pulls versions created at or after since.
func (c *Client) VersionsContext(ctx context.Context, since time.Time) ([]adapt.BNVersion, error) {
	var vr VersionsResponse
	if err := c.getJSON(ctx, "/v1/versions"+sinceQuery(since), &vr); err != nil {
		return nil, err
	}
	return vr.Versions, nil
}

// RefBNContext downloads the pinned delta-reference BN snapshot.
func (c *Client) RefBNContext(ctx context.Context) (*nn.BNSnapshot, error) {
	data, err := c.getRaw(ctx, "/v1/refbn")
	if err != nil {
		return nil, err
	}
	return nn.DecodeBNSnapshot(data)
}

// DeltasContext pulls delta-compressed versions created at or after since
// and reconstructs them against the reference snapshot
// (checksum-verified).
func (c *Client) DeltasContext(ctx context.Context, since time.Time, ref *nn.BNSnapshot) ([]adapt.BNVersion, error) {
	var dr DeltasResponse
	if err := c.getJSON(ctx, "/v1/deltas"+sinceQuery(since), &dr); err != nil {
		return nil, err
	}
	out := make([]adapt.BNVersion, 0, len(dr.Versions))
	for _, dv := range dr.Versions {
		delta, err := adapt.DecodeBNDelta(dv.Delta)
		if err != nil {
			return nil, fmt.Errorf("httpapi: version %s: %w", dv.ID, err)
		}
		snap, err := delta.Apply(ref)
		if err != nil {
			return nil, fmt.Errorf("httpapi: version %s: %w", dv.ID, err)
		}
		out = append(out, adapt.BNVersion{
			ID: dv.ID, Cause: dv.Cause, Snapshot: snap, CreatedAt: dv.CreatedAt,
		})
	}
	return out, nil
}

// BaseContext downloads the current base model snapshot.
func (c *Client) BaseContext(ctx context.Context) (*nn.NetSnapshot, error) {
	data, err := c.getRaw(ctx, "/v1/base")
	if err != nil {
		return nil, err
	}
	return nn.DecodeNetSnapshot(data)
}

// StatusContext fetches service counters.
func (c *Client) StatusContext(ctx context.Context) (StatusResponse, error) {
	var sr StatusResponse
	err := c.getJSON(ctx, "/v1/status", &sr)
	return sr, err
}

// sinceQuery renders the optional ?since= parameter.
func sinceQuery(since time.Time) string {
	if since.IsZero() {
		return ""
	}
	return "?since=" + since.UTC().Format(time.RFC3339)
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("httpapi: marshal: %w", err)
	}
	return c.postRaw(ctx, path, ContentTypeJSON, data, out)
}

// postRaw posts a pre-encoded body under the given content type.
func (c *Client) postRaw(ctx context.Context, path, contentType string, data []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("httpapi: post %s: %w", path, err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("httpapi: post %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	if out != nil {
		return decodeJSON(resp.Body, out)
	}
	return nil
}

// getJSON fetches path and decodes a JSON response into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return decodeJSON(resp.Body, out)
}

// getRaw fetches path and returns the raw (octet-stream) body.
func (c *Client) getRaw(ctx context.Context, path string) ([]byte, error) {
	resp, err := c.get(ctx, path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("httpapi: get %s: %w", path, err)
	}
	return data, nil
}

func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, fmt.Errorf("httpapi: get %s: %w", path, err)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, fmt.Errorf("httpapi: get %s: %w", path, err)
	}
	return resp, nil
}

// apiError decodes a non-2xx response into an *APIError, carrying the
// Retry-After backpressure hint when the server sent one.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	apiErr := decodeAPIError(resp.StatusCode, bytes.TrimSpace(body))
	apiErr.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
	return apiErr
}
