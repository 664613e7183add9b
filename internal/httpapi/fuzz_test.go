package httpapi

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// fuzzServer builds one shared handler for the fuzz targets: the corpus
// exercises the decode/validation path, so an untrained model and an
// initially empty log are enough and keep iterations fast.
var fuzzServer = sync.OnceValue(func() *Server {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(7, 1))
	return NewServer(cloud.NewService(base, cloud.DefaultConfig()))
})

// FuzzIngestBatch reads arbitrary bodies as the readable (JSON) form of a
// batch. POST /v1/ingest/batch must refuse each body itself with 415
// codec_unsupported; a body that reads as a batch and encodes as a frame
// must then be answered, as that frame, with a 200 or a 4xx, never a 5xx
// or a panic.
func FuzzIngestBatch(f *testing.F) {
	f.Add([]byte(`{"entries":[{"time":"2020-01-15T00:00:00Z","attrs":{"device":"android_42","weather":"snow"},"drift":true,"sample_id":-1}]}`))
	f.Add([]byte(`{"entries":[{"time":"2020-01-15T00:00:00Z","attrs":{}}],"samples":[[0.5,1.5]]}`))
	f.Add([]byte(`{"entries":[]}`))
	f.Add([]byte(`{"entries":[{"attrs":{}}],"samples":[[1],[2]]}`))
	f.Add([]byte(`{"entries":`))
	f.Add([]byte(`{"entries":[{"attrs":{}}]}{"extra":1}`))
	f.Add([]byte(`{"bogus":true}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, body []byte) {
		post := func(contentType string, body []byte) int {
			req := httptest.NewRequest("POST", "/v1/ingest/batch", bytes.NewReader(body))
			req.Header.Set("Content-Type", contentType)
			rec := httptest.NewRecorder()
			fuzzServer().ServeHTTP(rec, req)
			return rec.Code
		}
		if code := post(ContentTypeJSON, body); code != http.StatusUnsupportedMediaType {
			t.Fatalf("status %d for JSON body %q, want 415", code, body)
		}
		batch, err := JSONCodec{}.DecodeBatch(bytes.NewReader(body), 0)
		if err != nil {
			return
		}
		frame, err := BinaryCodec{}.EncodeBatch(batch)
		if err != nil {
			return
		}
		if code := post(ContentTypeBinary, frame); code != 200 && (code < 400 || code >= 500) {
			t.Fatalf("status %d for the frame of %q", code, body)
		}
	})
}

// FuzzIngestBatchBinary throws arbitrary bytes at POST /v1/ingest/batch
// as application/x-nazar-batch: the NZB1 decoder, the batch validation
// and the service's ingest checks behind it must answer every body with
// a 200 or a 4xx, never a 5xx or a panic. The seeds are valid frames
// (with and without a sample, one of the wrong width) and their tears.
func FuzzIngestBatchBinary(f *testing.F) {
	e := driftlog.Entry{Time: time.Unix(1579046400, 0).UTC(), Drift: true,
		Attrs: map[string]string{driftlog.AttrDevice: "android_42", driftlog.AttrWeather: "snow"}}
	for _, samples := range [][][]float64{nil, {{1, 2, 3, 4, 5, 6, 7, 8}}, {{0.5, 1.5}}} {
		frame, err := BinaryCodec{}.EncodeBatch(&BatchFrame{Entries: []driftlog.Entry{e}, Samples: samples})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	empty, err := BinaryCodec{}.EncodeBatch(&BatchFrame{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte("NZB1"))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/ingest/batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", ContentTypeBinary)
		rec := httptest.NewRecorder()
		fuzzServer().ServeHTTP(rec, req)
		if rec.Code != 200 && (rec.Code < 400 || rec.Code >= 500) {
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}

// FuzzAnalyzeRequest throws arbitrary bodies at POST /v1/analyze (the
// log stays empty, so accepted requests analyze an empty window).
func FuzzAnalyzeRequest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"from":"2020-01-15T00:00:00Z","to":"2020-01-16T00:00:00Z","now":"2020-01-16T00:00:00Z"}`))
	f.Add([]byte(`{"from":"not-a-time"}`))
	f.Add([]byte(`{"window":"1h"}`))
	f.Add([]byte(`{} {}`))
	f.Add([]byte(`[`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		fuzzServer().ServeHTTP(rec, req)
		if rec.Code != 200 && (rec.Code < 400 || rec.Code >= 500) {
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}
