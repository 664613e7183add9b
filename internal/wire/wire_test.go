package wire_test

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
	"strings"
	"testing"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/httpapi"
	"nazar/internal/nn"
	"nazar/internal/tensor"
	"nazar/internal/wire"
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

func randSamples(r *rand.Rand, n int) [][]float64 {
	if n == 0 || r.Float64() < 0.3 {
		return nil
	}
	samples := make([][]float64, n)
	for i := range samples {
		if r.Float64() < 0.4 {
			s := make([]float64, 1+r.Intn(6))
			for j := range s {
				s[j] = r.NormFloat64()
			}
			samples[i] = s
		}
	}
	return samples
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		entries := randEntries(r, r.Intn(100))
		samples := randSamples(r, len(entries))
		b := wire.FromEntries(entries, samples)
		frame, err := wire.EncodeBatch(b)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		got, err := wire.DecodeBatch(frame, 0)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Entries(), b.Entries()) {
			t.Fatalf("seed %d: entries diverged after round trip", seed)
		}
		wantSamples := samples
		if allNil(wantSamples) {
			wantSamples = nil // a frame with no samples decodes to a nil section
		}
		if !reflect.DeepEqual(got.Samples, wantSamples) {
			t.Fatalf("seed %d: samples diverged:\n got %v\nwant %v", seed, got.Samples, wantSamples)
		}
	}
}

func allNil(samples [][]float64) bool {
	for _, s := range samples {
		if s != nil {
			return false
		}
	}
	return true
}

// ingestRoutes are the four ways a batch reaches the one ingest path.
var ingestRoutes = []struct {
	name   string
	path   string
	binary bool
}{
	{"batch/json", "/v1/ingest/batch", false},
	{"batch/binary", "/v1/ingest/batch", true},
	{"single/json", "/v1/ingest", false},
	{"single/binary", "/v1/ingest", true},
}

// postIngest serves one POST straight through the handler and returns the
// status and the error envelope's code ("" on success).
// quiet drops the server's per-request log lines.
var quiet = httpapi.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))

func postIngest(t *testing.T, h http.Handler, path string, binary bool, body []byte) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
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
			t.Fatalf("%s: status %d with a non-envelope body %q", path, rec.Code, rec.Body.String())
		}
	}
	return rec.Code, env.Error.Code
}

// routeBodies renders the batch as the request bodies one route takes:
// one body on the batch routes, one per row on the single routes.
func routeBodies(t *testing.T, path string, binary bool, entries []driftlog.Entry, samples [][]float64) [][]byte {
	t.Helper()
	sampleOf := func(i int) []float64 {
		if samples == nil {
			return nil
		}
		return samples[i]
	}
	encode := func(v any, entries []driftlog.Entry, samples [][]float64) []byte {
		if binary {
			frame, err := wire.EncodeBatch(wire.FromEntries(entries, samples))
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			return frame
		}
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if path == "/v1/ingest/batch" {
		return [][]byte{encode(httpapi.IngestBatchRequest{Entries: entries, Samples: samples}, entries, samples)}
	}
	bodies := make([][]byte, len(entries))
	for i, e := range entries {
		var one [][]float64
		if s := sampleOf(i); s != nil {
			one = [][]float64{s}
		}
		bodies[i] = encode(httpapi.IngestRequest{Entry: e, Sample: sampleOf(i)}, []driftlog.Entry{e}, one)
	}
	return bodies
}

// TestBinaryJSONDifferential pins the ingest API's core promise: the same
// rows sent through either route (/v1/ingest/batch, or /v1/ingest one row
// at a time) in either codec leave the service in exactly the same state
// — rows, sample links, index counts — across odd shard fills and at
// compute pool widths 1 and 8; and the same bad body draws the same
// status and error code on both routes.
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
					for bi, body := range routeBodies(t, route.path, route.binary, entries, samples) {
						if st, code := postIngest(t, h, route.path, route.binary, body); st >= 300 {
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
					for i := 0; i < want.Log().Len(); i++ {
						we, ge := want.Log().Entry(i), got.Log().Entry(i)
						if !reflect.DeepEqual(we, ge) {
							t.Fatalf("seed %d row %d:\n %s %+v\n %s %+v", seed, i, ingestRoutes[0].name, we, name, ge)
						}
					}
					if !reflect.DeepEqual(got.Log().Attributes(), want.Log().Attributes()) {
						t.Fatalf("seed %d: attributes %v vs %s %v", seed, want.Log().Attributes(), name, got.Log().Attributes())
					}
					if gc := got.Log().All().AttrValueCounts(nil); !reflect.DeepEqual(wantCounts, gc) {
						t.Fatalf("seed %d: counts diverge\n %s %v\n %s %v", seed, ingestRoutes[0].name, wantCounts, name, gc)
					}
					if ws, gs := want.Samples().Stats(), got.Samples().Stats(); !reflect.DeepEqual(ws, gs) {
						t.Fatalf("seed %d: sample stores diverge\n %s %+v\n %s %+v", seed, ingestRoutes[0].name, ws, name, gs)
					}
				}
			}
		})
	}

	valid, err := wire.EncodeBatch(wire.FromEntries(randEntries(rand.New(rand.NewSource(5)), 1), nil))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xFF
	empty, err := wire.EncodeBatch(wire.FromEntries(nil, nil))
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
		for _, path := range []string{"/v1/ingest", "/v1/ingest/batch"} {
			if st, code := postIngest(t, h, path, tc.binary, tc.body); st != tc.status || code != tc.wantCode {
				t.Errorf("%s on %s: %d %q, want %d %q", tc.name, path, st, code, tc.status, tc.wantCode)
			}
		}
	}
	if svc.Log().Len() != 0 {
		t.Fatalf("bad bodies landed %d rows", svc.Log().Len())
	}

	// A refusing service (its WAL directory is a file) answers a good body
	// 500/internal on every route, so the transport retries rather than
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
	for _, route := range ingestRoutes {
		body := routeBodies(t, route.path, route.binary, good, nil)[0]
		if st, code := postIngest(t, hr, route.path, route.binary, body); st != 500 || code != httpapi.CodeInternal {
			t.Errorf("refusing service on %s: %d %q, want 500 %q", route.name, st, code, httpapi.CodeInternal)
		}
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	valid, err := wire.EncodeBatch(wire.FromEntries(randEntries(rand.New(rand.NewSource(3)), 8), nil))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, frame []byte, wantSub string) {
		t.Helper()
		_, err := wire.DecodeBatch(frame, 0)
		if err == nil {
			t.Fatalf("%s: decode accepted a corrupt frame", name)
		}
		var derr *wire.DecodeError
		if !asDecodeError(err, &derr) {
			t.Fatalf("%s: error %T is not *wire.DecodeError: %v", name, err, err)
		}
		if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}

	check("empty", nil, "short frame")
	check("torn header", valid[:10], "short frame")
	check("torn payload", valid[:len(valid)-3], "does not match")

	bad := append([]byte(nil), valid...)
	bad[0] = 'X'
	check("bad magic", bad, "bad magic")

	bad = append([]byte(nil), valid...)
	bad[4] = 99
	check("future version", bad, "unsupported frame version")

	bad = append([]byte(nil), valid...)
	bad[5] |= 0x80
	check("unknown flags", bad, "unknown flag bits")

	bad = append([]byte(nil), valid...)
	bad[len(bad)-1] ^= 0xFF
	check("payload corruption", bad, "crc mismatch")

	bad = append([]byte(nil), valid...)
	bad[10] ^= 0xFF
	check("crc corruption", bad, "crc mismatch")

	// Row count beyond the server's batch cap.
	big, err := wire.EncodeBatch(wire.FromEntries(randEntries(rand.New(rand.NewSource(4)), 20), nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeBatch(big, 5); err == nil {
		t.Fatal("maxRows: decode accepted 20 rows with limit 5")
	} else if !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("maxRows: unexpected error %v", err)
	}
}

func asDecodeError(err error, target **wire.DecodeError) bool {
	de, ok := err.(*wire.DecodeError)
	if ok {
		*target = de
	}
	return ok
}
