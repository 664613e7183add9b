package httpapi

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/nn"
	"nazar/internal/tensor"
	"nazar/internal/weather"
)

// lightEnv starts a server around an untrained model — enough for
// ingest/validation tests that never run analysis.
func lightEnv(t *testing.T) *Client {
	t.Helper()
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(7, 1))
	svc := cloud.NewService(base, cloud.DefaultConfig())
	srv := httptest.NewServer(NewServer(svc))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL)
}

// ingestOne ingests a single row (+ optional sample) as a one-row batch.
func ingestOne(svc *cloud.Service, e driftlog.Entry, sample []float64) error {
	var samples [][]float64
	if sample != nil {
		samples = [][]float64{sample}
	}
	return svc.IngestBatchContext(context.Background(), []driftlog.Entry{e}, samples)
}

func batchEntries(n int, day time.Time) []driftlog.Entry {
	entries := make([]driftlog.Entry, n)
	for i := range entries {
		entries[i] = driftlog.Entry{
			Time:  day.Add(time.Duration(i) * time.Minute),
			Drift: i%2 == 0,
			Attrs: map[string]string{
				driftlog.AttrWeather: "rain",
				driftlog.AttrDevice:  fmt.Sprintf("dev_%d", i%4),
			},
		}
	}
	return entries
}

func TestIngestBatchRoundTrip(t *testing.T) {
	c := lightEnv(t)
	day := weather.Day(3)
	entries := batchEntries(10, day)
	samples := make([][]float64, 10)
	for i := range samples {
		if i%2 == 0 {
			samples[i] = []float64{float64(i), 1, 2, 3, 4, 5, 6, 7}
		}
	}
	n, err := c.IngestBatchContext(context.Background(), entries, samples)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("accepted %d of 10", n)
	}
	st, err := c.StatusContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.LogRows != 10 || st.Samples != 5 {
		t.Fatalf("status after batch %+v", st)
	}
	// Sample-less batches are accepted too.
	if _, err := c.IngestBatchContext(context.Background(), batchEntries(3, day), nil); err != nil {
		t.Fatal(err)
	}
	st, _ = c.StatusContext(context.Background())
	if st.LogRows != 13 || st.Samples != 5 {
		t.Fatalf("status after sample-less batch %+v", st)
	}
}

// TestIngestBatchMatchesSequential checks the batch path records exactly
// what per-entry ingest would: same row order, same sample links.
func TestIngestBatchMatchesSequential(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(7, 1))
	day := weather.Day(3)
	entries := batchEntries(20, day)
	samples := make([][]float64, 20)
	for i := range samples {
		if i%3 == 0 {
			samples[i] = []float64{float64(i), 0, 0, 0, 0, 0, 0, 0} // the model's 8 inputs
		}
	}

	one := cloud.NewService(base, cloud.DefaultConfig())
	for i := range entries {
		if err := ingestOne(one, entries[i], samples[i]); err != nil {
			t.Fatal(err)
		}
	}
	many := cloud.NewService(base, cloud.DefaultConfig())
	if err := many.IngestBatchContext(context.Background(), append([]driftlog.Entry(nil), entries...), samples); err != nil {
		t.Fatal(err)
	}

	if a, b := one.Log().Len(), many.Log().Len(); a != b {
		t.Fatalf("row counts diverge: %d vs %d", a, b)
	}
	for i := 0; i < one.Log().Len(); i++ {
		a, b := one.Log().Entry(i), many.Log().Entry(i)
		if a.SampleID != b.SampleID || a.Drift != b.Drift || !a.Time.Equal(b.Time) {
			t.Fatalf("row %d diverges: %+v vs %+v", i, a, b)
		}
	}
}

func TestIngestBatchValidation(t *testing.T) {
	c := lightEnv(t)
	day := weather.Day(3)
	noAttrs := batchEntries(2, day)
	noAttrs[1].Attrs = nil
	cases := []struct {
		name string
		req  IngestBatchRequest
	}{
		{"empty", IngestBatchRequest{}},
		{"sample count mismatch", IngestBatchRequest{
			Entries: batchEntries(2, day),
			Samples: [][]float64{{1}},
		}},
		{"entry without attrs", IngestBatchRequest{Entries: noAttrs}},
		{"oversized batch", IngestBatchRequest{Entries: batchEntries(maxBatchEntries+1, day)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := c.post(context.Background(), "/v1/ingest/batch", tc.req, nil)
			if err == nil {
				t.Fatal("expected rejection")
			}
			if !strings.Contains(err.Error(), "400") {
				t.Fatalf("expected HTTP 400, got %v", err)
			}
		})
	}
}
