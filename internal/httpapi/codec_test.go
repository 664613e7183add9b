package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// newCodecEnv builds a cheap ingest-only environment: an untrained
// model is enough because the codec tests never analyze.
func newCodecEnv(t *testing.T) (*cloud.Service, *httptest.Server) {
	t.Helper()
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(77, 1))
	svc := cloud.NewService(base, cloud.DefaultConfig())
	srv := httptest.NewServer(NewServer(svc))
	t.Cleanup(srv.Close)
	return svc, srv
}

func codecEntries(n int) ([]driftlog.Entry, [][]float64) {
	r := rand.New(rand.NewSource(42))
	base := time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)
	entries := make([]driftlog.Entry, n)
	samples := make([][]float64, n)
	for i := range entries {
		attrs := map[string]string{driftlog.AttrDevice: fmt.Sprintf("dev_%d", i%5)}
		if i%3 != 0 {
			attrs[driftlog.AttrWeather] = []string{"snow", "fog"}[i%2]
		}
		entries[i] = driftlog.Entry{
			Time:     base.Add(time.Duration(i) * time.Minute),
			Drift:    i%2 == 0,
			SampleID: -1,
			Attrs:    attrs,
		}
		if i%4 == 0 {
			samples[i] = make([]float64, 8) // newCodecEnv's model takes 8 inputs
			samples[i][0], samples[i][1] = float64(i), r.NormFloat64()
		}
	}
	return entries, samples
}

// TestBinaryBatchMatchesJSON is the readable form's differential: a batch
// rendered as JSON and read back, then shipped as a frame, must leave a
// service in the drift-log and sample state the batch shipped directly
// leaves.
func TestBinaryBatchMatchesJSON(t *testing.T) {
	entries, samples := codecEntries(37)

	body, err := JSONCodec{}.EncodeBatch(&BatchFrame{Entries: entries, Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	read, err := JSONCodec{}.DecodeBatch(bytes.NewReader(body), 0)
	if err != nil {
		t.Fatalf("json read back: %v", err)
	}
	jsonSvc, jsonSrv := newCodecEnv(t)
	jn, err := NewClient(jsonSrv.URL).IngestBatchContext(context.Background(), read.Entries, read.Samples)
	if err != nil {
		t.Fatalf("ingest of the json form: %v", err)
	}

	binSvc, binSrv := newCodecEnv(t)
	binClient := NewClient(binSrv.URL) // binary by default
	bn, err := binClient.IngestBatchContext(context.Background(), entries, samples)
	if err != nil {
		t.Fatalf("binary ingest: %v", err)
	}

	if jn != len(entries) || bn != len(entries) {
		t.Fatalf("accepted json=%d binary=%d, want %d", jn, bn, len(entries))
	}
	if jl, bl := jsonSvc.Log().Len(), binSvc.Log().Len(); jl != bl {
		t.Fatalf("log rows json=%d binary=%d", jl, bl)
	}
	jsonRows, binRows := logRows(jsonSvc.Log()), logRows(binSvc.Log())
	for i := range jsonRows {
		je, be := jsonRows[i], binRows[i]
		if !reflect.DeepEqual(je, be) {
			t.Fatalf("row %d:\n json %+v\n binary %+v", i, je, be)
		}
	}
	if js, bs := jsonSvc.Samples().Len(), binSvc.Samples().Len(); js != bs {
		t.Fatalf("samples json=%d binary=%d", js, bs)
	}
	jc := valueMap(jsonSvc.Log().All().AttrValueCounts(nil))
	bc := valueMap(binSvc.Log().All().AttrValueCounts(nil))
	if !reflect.DeepEqual(jc, bc) {
		t.Fatalf("counts diverge:\n json %v\n binary %v", jc, bc)
	}
}

// TestBinarySingleIngest covers a one-row binary batch carrying a
// sample upload: the row lands intact and links its sample.
func TestBinarySingleIngest(t *testing.T) {
	svc, srv := newCodecEnv(t)
	c := NewClient(srv.URL)
	e := driftlog.Entry{
		Time:     time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC),
		Drift:    true,
		SampleID: -1,
		Attrs:    map[string]string{driftlog.AttrDevice: "dev_0", driftlog.AttrWeather: "snow"},
	}
	if n, err := c.IngestBatchContext(context.Background(), []driftlog.Entry{e}, [][]float64{{1, 2, 3, 4, 5, 6, 7, 8}}); err != nil || n != 1 {
		t.Fatalf("accepted %d: %v", n, err)
	}
	if svc.Log().Len() != 1 {
		t.Fatalf("log rows %d, want 1", svc.Log().Len())
	}
	got := logRows(svc.Log())[0]
	if got.SampleID < 0 {
		t.Fatalf("sample not linked: %+v", got)
	}
	if svc.Samples().Len() != 1 {
		t.Fatalf("samples %d, want 1", svc.Samples().Len())
	}
	got.SampleID = -1
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("stored %+v, want %+v", got, e)
	}
}

// TestCodecNegotiationErrors pins the typed envelope for every
// negotiation failure mode: the route takes an identity-encoded NZB1
// body and nothing else.
func TestCodecNegotiationErrors(t *testing.T) {
	_, srv := newCodecEnv(t)
	post := func(path, contentType, accept, encoding string, body []byte) (int, string) {
		t.Helper()
		req, err := http.NewRequest("POST", srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		if encoding != "" {
			req.Header.Set("Content-Encoding", encoding)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env errorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		code := ""
		if env.Error != nil {
			code = env.Error.Code
		}
		return resp.StatusCode, code
	}

	entries, _ := codecEntries(1)
	frame, err := BinaryCodec{}.EncodeBatch(&BatchFrame{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, err := JSONCodec{}.EncodeBatch(&BatchFrame{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}

	for _, ct := range []string{ContentTypeJSON, "", "application/xml", "application/;;;"} {
		if st, code := post("/v1/ingest/batch", ct, "", "", jsonBody); st != 415 || code != CodeCodecUnsupported {
			t.Fatalf("content type %q: %d %q, want 415 %q", ct, st, code, CodeCodecUnsupported)
		}
	}
	if st, code := post("/v1/ingest/batch", ContentTypeBinary, "text/html", "", frame); st != 406 || code != CodeCodecUnsupported {
		t.Fatalf("non-JSON accept: %d %q, want 406 %q", st, code, CodeCodecUnsupported)
	}
	if st, code := post("/v1/ingest/batch", ContentTypeBinary, "", "br", frame); st != 415 || code != CodeCodecUnsupported {
		t.Fatalf("unknown content encoding: %d %q, want 415 %q", st, code, CodeCodecUnsupported)
	}
	// Accept that admits JSON via wildcards negotiates fine.
	if st, _ := post("/v1/ingest/batch", ContentTypeBinary, "application/*, text/plain", "", frame); st != 200 {
		t.Fatalf("wildcard accept refused: %d", st)
	}
	// A frame that fails to decode is invalid_frame.
	if st, code := post("/v1/ingest/batch", ContentTypeBinary, "", "", []byte("garbage")); st != 400 || code != CodeInvalidFrame {
		t.Fatalf("binary garbage: %d %q, want 400 %q", st, code, CodeInvalidFrame)
	}
}

// TestBinaryIngestRowLimit pins the row cap in the binary codec: a frame
// of maxBatchEntries+1 rows is refused whole before anything lands.
func TestBinaryIngestRowLimit(t *testing.T) {
	svc, srv := newCodecEnv(t)
	entries, _ := codecEntries(maxBatchEntries + 1)
	data, err := (BinaryCodec{}).EncodeBatch(&BatchFrame{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", srv.URL+"/v1/ingest/batch", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errorEnvelope
	_ = json.NewDecoder(resp.Body).Decode(&env)
	if resp.StatusCode != 400 || env.Error == nil || env.Error.Code != CodeInvalidFrame {
		t.Fatalf("%d-row binary batch: %d %+v, want 400 %q", len(entries), resp.StatusCode, env.Error, CodeInvalidFrame)
	}
	if n := svc.Log().Len(); n != 0 {
		t.Fatalf("refused batch landed %d rows", n)
	}
}

// TestBinaryBodyLengths: a binary body's declared length only pre-sizes
// its read. One with no declared length (chunked over a real connection)
// still lands; one shorter or longer than its Content-Length is refused as
// an invalid frame with nothing landed; one declaring more than the route's
// bound answers 413 body_too_large; and one declaring the bound but sending
// a few bytes allocates no more than maxFrameHint for its body.
func TestBinaryBodyLengths(t *testing.T) {
	entries, samples := codecEntries(19)
	data, err := (BinaryCodec{}).EncodeBatch(&BatchFrame{Entries: entries, Samples: samples})
	if err != nil {
		t.Fatal(err)
	}

	svc := cloud.NewService(nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(77, 1)), cloud.DefaultConfig())
	h := NewServer(svc, WithLogger(discardLogger()))
	var declared int64
	var encoding []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		declared, encoding = r.ContentLength, r.TransferEncoding
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	// A reader of unknown length: the client sends it chunked.
	req, err := http.NewRequest("POST", srv.URL+"/v1/ingest/batch", io.MultiReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || declared != -1 || !reflect.DeepEqual(encoding, []string{"chunked"}) {
		t.Fatalf("chunked body: %d (declared length %d, transfer encoding %q), want 200 with none, chunked", resp.StatusCode, declared, encoding)
	}
	if n := svc.Log().Len(); n != len(entries) {
		t.Fatalf("chunked body landed %d rows, want %d", n, len(entries))
	}

	filler := io.LimitReader(repeatByte('x'), maxBatchBodyBytes+1)
	cases := []struct {
		name     string
		body     io.Reader
		declared int64
		status   int
		code     string
	}{
		{"shorter", bytes.NewReader(data[:len(data)-5]), int64(len(data)), http.StatusBadRequest, CodeInvalidFrame},
		{"longer", io.MultiReader(bytes.NewReader(data), bytes.NewReader(data[:3])), int64(len(data)), http.StatusBadRequest, CodeInvalidFrame},
		{"over the bound", filler, maxBatchBodyBytes + 1, http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
	}
	for _, tc := range cases {
		svc := cloud.NewService(nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(77, 1)), cloud.DefaultConfig())
		req := httptest.NewRequest("POST", "/v1/ingest/batch", tc.body)
		req.ContentLength = tc.declared
		req.Header.Set("Content-Type", ContentTypeBinary)
		rec := httptest.NewRecorder()
		NewServer(svc, WithLogger(discardLogger())).ServeHTTP(rec, req)
		var env errorEnvelope
		_ = json.Unmarshal(rec.Body.Bytes(), &env)
		if rec.Code != tc.status || env.Error == nil || env.Error.Code != tc.code {
			t.Errorf("%s: %d %.200q, want %d %q", tc.name, rec.Code, rec.Body.String(), tc.status, tc.code)
		}
		if n := svc.Log().Len(); n != 0 {
			t.Errorf("%s: refused body landed %d rows", tc.name, n)
		}
	}

	req = httptest.NewRequest("POST", "/v1/ingest/batch", bytes.NewReader(data[:10]))
	req.ContentLength = maxBatchBodyBytes
	req.Header.Set("Content-Type", ContentTypeBinary)
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("trickled body: %d, want 400", rec.Code)
	}
	// About maxFrameHint in a normal build; the race detector's build
	// allocates the buffer twice.
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*maxFrameHint {
		t.Fatalf("a body declaring %d bytes and sending 10 allocated %d bytes, want ≤ %d", maxBatchBodyBytes, got, 4*maxFrameHint)
	}
}

// valueMap is the map form of a level-1 group-by: per attribute, every value
// the window holds with its counts.
func valueMap(acs []driftlog.AttrCounts) map[string]map[string]driftlog.CountResult {
	out := make(map[string]map[string]driftlog.CountResult, len(acs))
	for _, ac := range acs {
		byVal := map[string]driftlog.CountResult{}
		for id, cr := range ac.Counts {
			if cr.Total > 0 {
				byVal[ac.Dict[id]] = cr
			}
		}
		out[ac.Name] = byVal
	}
	return out
}
