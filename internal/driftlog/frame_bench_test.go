package driftlog_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/httpapi"
	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// benchEntries fabricates a realistic fleet batch: a handful of devices
// and weather values (so dictionaries stay small relative to rows, as
// they do in production) with monotone timestamps.
func benchEntries(n int) []driftlog.Entry {
	r := rand.New(rand.NewSource(1))
	base := time.Unix(1700000000, 0).UTC()
	entries := make([]driftlog.Entry, n)
	for i := range entries {
		entries[i] = driftlog.Entry{
			Time:     base.Add(time.Duration(i) * time.Second),
			Drift:    i%3 == 0,
			SampleID: -1,
			Attrs: map[string]string{
				driftlog.AttrDevice:   fmt.Sprintf("android_fleet_%d", r.Intn(8)),
				driftlog.AttrWeather:  []string{"clear-day", "snow", "fog"}[r.Intn(3)],
				driftlog.AttrLocation: []string{"Quebec", "Detroit"}[r.Intn(2)],
			},
		}
	}
	return entries
}

// The sizes the acceptance gate pins: a small partial flush and the
// transport's default MaxBatch.
var benchSizes = []int{16, 256}

// BenchmarkWireEncode compares rendering one ingest batch as a request
// body: the JSON codec versus the columnar binary frame.
func BenchmarkWireEncode(b *testing.B) {
	for _, n := range benchSizes {
		entries := benchEntries(n)
		b.Run(fmt.Sprintf("json/%d", n), func(b *testing.B) {
			frame := &httpapi.BatchFrame{Entries: entries}
			codec := httpapi.JSONCodec{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.EncodeBatch(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("binary/%d", n), func(b *testing.B) {
			frame := &httpapi.BatchFrame{Entries: entries}
			codec := httpapi.BinaryCodec{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.EncodeBatch(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireDecode compares parsing a request body back into an
// appendable batch.
func BenchmarkWireDecode(b *testing.B) {
	for _, n := range benchSizes {
		entries := benchEntries(n)
		jsonBody, err := json.Marshal(httpapi.IngestBatchRequest{Entries: entries})
		if err != nil {
			b.Fatal(err)
		}
		binBody, err := driftlog.AppendFrame(nil, batchOf(entries, nil))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("json/%d", n), func(b *testing.B) {
			codec := httpapi.JSONCodec{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.DecodeBatch(bytes.NewReader(jsonBody), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("binary/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := driftlog.DecodeFrame(binBody, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchServer = sync.OnceValue(func() *httpapi.Server {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(5, 1))
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	return httpapi.NewServer(cloud.NewService(base, cloud.DefaultConfig()), httpapi.WithLogger(quiet))
})

// BenchmarkWireIngest measures the full server-side ingest round trip —
// negotiation, decode, store append — through ServeHTTP, which is the
// wire-CPU number the cloud actually pays per batch.
func BenchmarkWireIngest(b *testing.B) {
	for _, n := range benchSizes {
		binBody, err := driftlog.AppendFrame(nil, batchOf(benchEntries(n), nil))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("binary/%d", n), func(b *testing.B) {
			srv := benchServer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/v1/ingest/batch", bytes.NewReader(binBody))
				req.Header.Set("Content-Type", httpapi.ContentTypeBinary)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != 200 {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}
