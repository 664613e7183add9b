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
			samples[i] = []float64{float64(i), r.NormFloat64()}
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
	jn, err := jsonClient.IngestBatchContext(context.Background(), entries, samples)
	if err != nil {
		t.Fatalf("json ingest: %v", err)
	}

	binSvc, binSrv := newCodecEnv(t)
	binClient := NewClient(binSrv.URL)
	binClient.Codec = BinaryCodec{}
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
	for i := 0; i < jsonSvc.Log().Len(); i++ {
		je, be := jsonSvc.Log().Entry(i), binSvc.Log().Entry(i)
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

// TestBinarySingleIngest covers /v1/ingest with the binary codec (a
// one-row frame) including a sample upload.
func TestBinarySingleIngest(t *testing.T) {
	svc, srv := newCodecEnv(t)
	c := NewClient(srv.URL)
	c.Codec = BinaryCodec{}
	e := driftlog.Entry{
		Time:     time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC),
		Drift:    true,
		SampleID: -1,
		Attrs:    map[string]string{driftlog.AttrDevice: "dev_0", driftlog.AttrWeather: "snow"},
	}
	if err := c.IngestContext(context.Background(), e, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if svc.Log().Len() != 1 {
		t.Fatalf("log rows %d, want 1", svc.Log().Len())
	}
	got := svc.Log().Entry(0)
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

// TestGzipIngest covers Content-Encoding: gzip over both codecs.
func TestGzipIngest(t *testing.T) {
	entries, samples := codecEntries(25)
	for _, codec := range []Codec{JSONCodec{}, BinaryCodec{}} {
		svc, srv := newCodecEnv(t)
		c := NewClient(srv.URL)
		c.Codec = codec
		c.Compress = true
		n, err := c.IngestBatchContext(context.Background(), entries, samples)
		if err != nil {
			t.Fatalf("%s: %v", codec.ContentType(), err)
		}
		if n != len(entries) || svc.Log().Len() != len(entries) {
			t.Fatalf("%s: accepted %d, log %d, want %d", codec.ContentType(), n, svc.Log().Len(), len(entries))
		}
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
	if st, code := post("/v1/ingest", "application/xml", "", "", jsonBody); st != 415 || code != CodeCodecUnsupported {
		t.Fatalf("single ingest unknown content type: %d %q, want 415 %q", st, code, CodeCodecUnsupported)
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

// TestBinaryIngestRowLimit pins the single-ingest contract: a binary
// frame on /v1/ingest must carry exactly one row.
func TestBinaryIngestRowLimit(t *testing.T) {
	_, srv := newCodecEnv(t)
	entries, _ := codecEntries(2)
	data, err := (BinaryCodec{}).EncodeBatch(&BatchFrame{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", srv.URL+"/v1/ingest", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("two-row single ingest: %d, want 400", resp.StatusCode)
	}
}

func TestContentTypesRegistry(t *testing.T) {
	cts := ContentTypes()
	want := map[string]bool{ContentTypeJSON: true, ContentTypeBinary: true}
	found := 0
	for _, ct := range cts {
		if want[ct] {
			found++
		}
		if _, ok := CodecFor(ct); !ok {
			t.Fatalf("ContentTypes lists %q but CodecFor misses it", ct)
		}
	}
	if found != len(want) {
		t.Fatalf("registry %v missing a built-in codec", cts)
	}
}
