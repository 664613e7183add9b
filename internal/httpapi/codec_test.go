package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// TestBinaryBatchMatchesJSON is the server-state differential: the same
// batch POSTed through the JSON codec and through the binary codec must
// leave two services in identical drift-log and sample states.
func TestBinaryBatchMatchesJSON(t *testing.T) {
	entries, samples := codecEntries(37)

	jsonSvc, jsonSrv := newCodecEnv(t)
	jsonClient := NewClient(jsonSrv.URL)
	jsonClient.Codec = JSONCodec{}
	jn, err := jsonClient.IngestBatchContext(context.Background(), entries, samples)
	if err != nil {
		t.Fatalf("json ingest: %v", err)
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
	jc := jsonSvc.Log().All().AttrValueCounts(nil)
	bc := binSvc.Log().All().AttrValueCounts(nil)
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
// negotiation failure mode.
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

	jsonBody := []byte(`{"entries":[{"time":"2026-02-01T00:00:00Z","attrs":{"device":"d0"}}]}`)

	if st, code := post("/v1/ingest/batch", "application/xml", "", "", jsonBody); st != 415 || code != CodeCodecUnsupported {
		t.Fatalf("unknown content type: %d %q, want 415 %q", st, code, CodeCodecUnsupported)
	}
	if st, code := post("/v1/ingest/batch", "application/;;;", "", "", jsonBody); st != 415 || code != CodeCodecUnsupported {
		t.Fatalf("malformed content type: %d %q, want 415 %q", st, code, CodeCodecUnsupported)
	}
	if st, code := post("/v1/ingest/batch", "application/json", "text/html", "", jsonBody); st != 406 || code != CodeCodecUnsupported {
		t.Fatalf("non-JSON accept: %d %q, want 406 %q", st, code, CodeCodecUnsupported)
	}
	if st, code := post("/v1/ingest/batch", "application/json", "", "br", jsonBody); st != 415 || code != CodeCodecUnsupported {
		t.Fatalf("unknown content encoding: %d %q, want 415 %q", st, code, CodeCodecUnsupported)
	}
	// Accept that admits JSON via wildcards negotiates fine.
	if st, _ := post("/v1/ingest/batch", "application/json", "application/*, text/plain", "", jsonBody); st != 200 {
		t.Fatalf("wildcard accept refused: %d", st)
	}

	// Binary decode failures are invalid_frame, not invalid_json.
	if st, code := post("/v1/ingest/batch", ContentTypeBinary, "", "", []byte("garbage")); st != 400 || code != CodeInvalidFrame {
		t.Fatalf("binary garbage: %d %q, want 400 %q", st, code, CodeInvalidFrame)
	}
	if st, code := post("/v1/ingest/batch", "application/json", "", "", []byte("garbage")); st != 400 || code != CodeInvalidJSON {
		t.Fatalf("json garbage: %d %q, want 400 %q", st, code, CodeInvalidJSON)
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

// TestContentTypesRegistry pins the fixed codec table: the two built-in
// media types, sorted, each resolving to its codec, and nothing else.
func TestContentTypesRegistry(t *testing.T) {
	cts := ContentTypes()
	if want := []string{ContentTypeJSON, ContentTypeBinary}; !reflect.DeepEqual(cts, want) {
		t.Fatalf("ContentTypes() = %v, want %v", cts, want)
	}
	for _, ct := range cts {
		if c, ok := CodecFor(ct); !ok || c.ContentType() != ct {
			t.Fatalf("CodecFor(%q) = %v, %v", ct, c, ok)
		}
	}
	if _, ok := CodecFor("text/plain"); ok {
		t.Fatal("CodecFor resolved a media type outside the table")
	}
}
