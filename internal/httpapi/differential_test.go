package httpapi_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/httpapi"
	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// randEntries fabricates entries with deliberately awkward shapes:
// attributes missing at random (odd shard fills on append), empty
// values, scattered timestamps, negative sample IDs.
func randEntries(r *rand.Rand, n int) []driftlog.Entry {
	base := time.Unix(0, 0).UTC()
	entries := make([]driftlog.Entry, n)
	for i := range entries {
		attrs := map[string]string{}
		if r.Float64() < 0.9 {
			attrs[driftlog.AttrWeather] = fmt.Sprintf("w%d", r.Intn(4))
		}
		if r.Float64() < 0.8 {
			attrs[driftlog.AttrDevice] = fmt.Sprintf("dev_%d", r.Intn(12))
		}
		if r.Float64() < 0.1 {
			attrs["note"] = "" // empty value is legal and distinct from missing
		}
		entries[i] = driftlog.Entry{
			Time:     base.Add(time.Duration(r.Intn(5000)) * time.Millisecond),
			Drift:    r.Float64() < 0.4,
			SampleID: int64(r.Intn(30)) - 1,
			Attrs:    attrs,
		}
	}
	return entries
}

// randSamples fabricates a sample column (nil at random, and nil rows)
// of vectors as wide as the differential's 8-input model.
func randSamples(r *rand.Rand, n int) [][]float64 {
	if n == 0 || r.Float64() < 0.3 {
		return nil
	}
	samples := make([][]float64, n)
	for i := range samples {
		if r.Float64() < 0.4 {
			s := make([]float64, 8)
			for j := range s {
				s[j] = r.NormFloat64()
			}
			samples[i] = s
		}
	}
	return samples
}

// batchOf converts entries and their optional sample column to a batch.
func batchOf(entries []driftlog.Entry, samples [][]float64) *driftlog.ColumnarBatch {
	b := driftlog.ColumnsFromEntries(entries)
	b.Samples = samples
	return b
}

// ingestRoutes are the four ways rows reach the one ingest route: as one
// batch or as one-row batches, in either codec.
var ingestRoutes = []struct {
	name   string
	perRow bool
	binary bool
}{
	{"batch/json", false, false},
	{"batch/binary", false, true},
	{"rows/json", true, false},
	{"rows/binary", true, true},
}

// quiet drops the server's per-request log lines.
var quiet = httpapi.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))

// postIngest serves one POST /v1/ingest/batch straight through the
// handler and returns the status and the error envelope's code ("" on
// success).
func postIngest(t *testing.T, h http.Handler, binary bool, body []byte) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest/batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", httpapi.ContentTypeJSON)
	if binary {
		req.Header.Set("Content-Type", httpapi.ContentTypeBinary)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if rec.Code >= 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("status %d with a non-envelope body %q", rec.Code, rec.Body.String())
		}
	}
	return rec.Code, env.Error.Code
}

// routeBodies renders the rows as the request bodies one route sends:
// one batch, or one one-row batch per row.
func routeBodies(t *testing.T, perRow, binary bool, entries []driftlog.Entry, samples [][]float64) [][]byte {
	t.Helper()
	encode := func(entries []driftlog.Entry, samples [][]float64) []byte {
		if binary {
			frame, err := driftlog.AppendFrame(nil, batchOf(entries, samples))
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			return frame
		}
		data, err := json.Marshal(httpapi.IngestBatchRequest{Entries: entries, Samples: samples})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !perRow {
		return [][]byte{encode(entries, samples)}
	}
	bodies := make([][]byte, len(entries))
	for i := range entries {
		var one [][]float64
		if samples != nil && samples[i] != nil {
			one = [][]float64{samples[i]}
		}
		bodies[i] = encode(entries[i:i+1], one)
	}
	return bodies
}

// TestBinaryJSONDifferential pins the ingest API's core promise: the same
// rows sent as one batch or as one-row batches, in either codec, leave
// the service in exactly the same state — rows, sample links, index
// counts — across odd shard fills and at compute pool widths 1 and 8;
// and each bad body draws its status and error code.
func TestBinaryJSONDifferential(t *testing.T) {
	defer tensor.SetMaxWorkers(0)
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(7, 1))
	for _, workers := range []int{1, 8} {
		tensor.SetMaxWorkers(workers)
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				r := rand.New(rand.NewSource(1000 + seed))
				entries := randEntries(r, 1+r.Intn(150))
				samples := randSamples(r, len(entries))

				svcs := make([]*cloud.Service, len(ingestRoutes))
				for ri, route := range ingestRoutes {
					svcs[ri] = cloud.NewService(base, cloud.DefaultConfig())
					h := httpapi.NewServer(svcs[ri], quiet)
					for bi, body := range routeBodies(t, route.perRow, route.binary, entries, samples) {
						if st, code := postIngest(t, h, route.binary, body); st >= 300 {
							t.Fatalf("seed %d %s body %d: status %d code %q", seed, route.name, bi, st, code)
						}
					}
				}

				want := svcs[0]
				if want.Log().Len() != len(entries) {
					t.Fatalf("seed %d %s: %d rows, want %d", seed, ingestRoutes[0].name, want.Log().Len(), len(entries))
				}
				wantCounts := want.Log().All().AttrValueCounts(nil)
				for ri := 1; ri < len(svcs); ri++ {
					got, name := svcs[ri], ingestRoutes[ri].name
					if got.Log().Len() != want.Log().Len() {
						t.Fatalf("seed %d: %s store %d rows, %s store %d", seed, ingestRoutes[0].name, want.Log().Len(), name, got.Log().Len())
					}
					var wantRows []driftlog.Entry
					want.Log().Each(func(_ int, e driftlog.Entry) { wantRows = append(wantRows, e) })
					got.Log().Each(func(i int, ge driftlog.Entry) {
						if we := wantRows[i]; !reflect.DeepEqual(we, ge) {
							t.Fatalf("seed %d row %d:\n %s %+v\n %s %+v", seed, i, ingestRoutes[0].name, we, name, ge)
						}
					})
					if gc := got.Log().All().AttrValueCounts(nil); !reflect.DeepEqual(wantCounts, gc) {
						t.Fatalf("seed %d: counts diverge\n %s %v\n %s %v", seed, ingestRoutes[0].name, wantCounts, name, gc)
					}
					wids, wxs, _ := want.Log().All().Samples(nil)
					gids, gxs, _ := got.Log().All().Samples(nil)
					if !reflect.DeepEqual(wids, gids) || !reflect.DeepEqual(wxs, gxs) {
						t.Fatalf("seed %d: sample columns diverge\n %s %v\n %s %v", seed, ingestRoutes[0].name, wids, name, gids)
					}
				}
			}
		})
	}

	valid, err := driftlog.AppendFrame(nil, batchOf(randEntries(rand.New(rand.NewSource(5)), 1), nil))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xFF
	empty, err := driftlog.AppendFrame(nil, batchOf(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name     string
		binary   bool
		body     []byte
		status   int
		wantCode string
	}{
		{"json malformed", false, []byte(`{"entr`), 400, httpapi.CodeInvalidJSON},
		{"json unknown field", false, []byte(`{"bogus":1}`), 400, httpapi.CodeInvalidJSON},
		{"json trailing data", false, []byte(`{} {}`), 400, httpapi.CodeInvalidJSON},
		{"json nothing to ingest", false, []byte(`{}`), 400, httpapi.CodeInvalidRequest},
		{"binary torn frame", true, valid[:len(valid)-3], 400, httpapi.CodeInvalidFrame},
		{"binary crc mismatch", true, flipped, 400, httpapi.CodeInvalidFrame},
		{"binary zero rows", true, empty, 400, httpapi.CodeInvalidRequest},
	}
	svc := cloud.NewService(base, cloud.DefaultConfig())
	h := httpapi.NewServer(svc, quiet)
	for _, tc := range bad {
		if st, code := postIngest(t, h, tc.binary, tc.body); st != tc.status || code != tc.wantCode {
			t.Errorf("%s: %d %q, want %d %q", tc.name, st, code, tc.status, tc.wantCode)
		}
	}
	if svc.Log().Len() != 0 {
		t.Fatalf("bad bodies landed %d rows", svc.Log().Len())
	}

	// A refusing service (its WAL directory is a file) answers a good body
	// 500/internal in either codec, so the transport retries rather than
	// dropping the batch.
	notDir := filepath.Join(t.TempDir(), "wal")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	refusing := cloud.NewService(base, cloud.DefaultConfig(), cloud.WithWAL(notDir, driftlog.WALOptions{}))
	if refusing.WALErr() == nil {
		t.Fatal("WAL opened on a regular file")
	}
	hr := httpapi.NewServer(refusing, quiet)
	good := randEntries(rand.New(rand.NewSource(6)), 1)
	for _, binary := range []bool{false, true} {
		body := routeBodies(t, false, binary, good, nil)[0]
		if st, code := postIngest(t, hr, binary, body); st != 500 || code != httpapi.CodeInternal {
			t.Errorf("refusing service, binary=%v: %d %q, want 500 %q", binary, st, code, httpapi.CodeInternal)
		}
	}
}
