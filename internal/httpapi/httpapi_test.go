package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/tensor"
	"nazar/internal/weather"
)

// newEnv starts an httptest server around a service with a small trained
// model, returning the client and the world.
func newEnv(t *testing.T) (*Client, *imagesim.World, *nn.Network) {
	t.Helper()
	world := imagesim.NewWorld(imagesim.DefaultConfig(8, 1010))
	rng := tensor.NewRand(1010, 1)
	base := nn.NewClassifier(nn.ArchResNet18, world.Dim(), 8, rng)
	n := 320
	x := tensor.New(n, world.Dim())
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % 8
		copy(x.Row(i), world.Sample(y[i], rng))
	}
	nn.Fit(base, x, y, nn.TrainConfig{Epochs: 12, BatchSize: 32, Rng: rng})
	cfg := cloud.DefaultConfig()
	cfg.MinSamplesPerCause = 8
	cfg.AdaptCfg.Epochs = 1
	cfg.AdaptCfg.MinSteps = 5
	svc := cloud.NewService(base, cfg)
	srv := httptest.NewServer(NewServer(svc))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), world, base
}

func TestStatusEmpty(t *testing.T) {
	c, _, _ := newEnv(t)
	st, err := c.StatusContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.LogRows != 0 || st.Samples != 0 || st.Versions != 0 {
		t.Fatalf("status %+v", st)
	}
}

func TestIngestAnalyzePullRoundTrip(t *testing.T) {
	c, world, base := newEnv(t)
	rng := tensor.NewRand(2020, 1)
	day := weather.Day(5)
	// Report fog-drifted and clean inferences in one batch.
	entries := make([]driftlog.Entry, 200)
	samples := make([][]float64, len(entries))
	for i := range entries {
		class := i % 8
		x := world.Sample(class, rng)
		cond := "clear-day"
		if i%2 == 0 {
			x = world.Corrupt(x, imagesim.Fog, imagesim.DefaultSeverity, rng)
			cond = "fog"
		}
		msp := tensor.Max(tensor.Softmax(base.LogitsOne(x)))
		entries[i] = driftlog.Entry{
			Time:  day.Add(time.Duration(i) * time.Minute),
			Drift: msp < 0.95,
			Attrs: map[string]string{
				driftlog.AttrWeather:  cond,
				driftlog.AttrLocation: []string{"A", "B", "C"}[i%3],
				driftlog.AttrDevice:   "dev0",
			},
		}
		samples[i] = x
	}
	if _, err := c.IngestBatchContext(context.Background(), entries, samples); err != nil {
		t.Fatal(err)
	}
	st, err := c.StatusContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.LogRows != 200 || st.Samples != 200 {
		t.Fatalf("status after ingest %+v", st)
	}

	resp, err := c.AnalyzeContext(context.Background(), AnalyzeRequest{Now: day.AddDate(0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.LogRows != 200 {
		t.Fatalf("analyze scanned %d rows", resp.LogRows)
	}
	foundFog := false
	for _, cause := range resp.Causes {
		if strings.Contains(cause, "fog") {
			foundFog = true
		}
	}
	if !foundFog {
		t.Fatalf("fog not found in %v", resp.Causes)
	}
	if len(resp.VersionIDs) == 0 {
		t.Fatal("no versions produced")
	}

	// Pull versions and install on a fresh device pool.
	versions, err := c.VersionsContext(context.Background(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != len(resp.VersionIDs) {
		t.Fatalf("pulled %d versions, expected %d", len(versions), len(resp.VersionIDs))
	}
	var fogV *adapt.BNVersion
	for i := range versions {
		if !versions[i].IsClean() {
			fogV = &versions[i]
		}
	}
	if fogV == nil {
		t.Fatal("no adapted version pulled")
	}
	net, err := adapt.Materialize(base, *fogV)
	if err != nil {
		t.Fatal(err)
	}
	// The wire round-trip must preserve adaptation quality.
	testN := 120
	fx := tensor.New(testN, world.Dim())
	labels := make([]int, testN)
	for i := 0; i < testN; i++ {
		labels[i] = i % 8
		copy(fx.Row(i), world.Corrupt(world.Sample(labels[i], rng), imagesim.Fog, imagesim.DefaultSeverity, rng))
	}
	if before, after := base.Accuracy(fx, labels), net.Accuracy(fx, labels); after <= before-0.02 {
		t.Fatalf("pulled version regressed: %v -> %v", before, after)
	}

	// Versions filtered by since: everything is newer than a past time,
	// nothing newer than a future one.
	future, err := c.VersionsContext(context.Background(), day.AddDate(1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(future) != 0 {
		t.Fatalf("future filter returned %d versions", len(future))
	}
}

func TestBaseDownload(t *testing.T) {
	c, world, base := newEnv(t)
	snap, err := c.BaseContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fresh := nn.NewClassifier(nn.ArchResNet18, world.Dim(), 8, tensor.NewRand(9, 9))
	if err := snap.ApplyTo(fresh); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, world.Dim())
	x.RandNormal(tensor.NewRand(3, 3), 0, 1)
	a, b := base.Logits(x), fresh.Logits(x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("downloaded base diverges")
		}
	}
}

// TestIngestValidation: a client set to ship JSON bodies is refused with
// 415 codec_unsupported, and nothing lands.
func TestIngestValidation(t *testing.T) {
	c, _, _ := newEnv(t)
	c.Codec = JSONCodec{}
	_, err := c.IngestBatchContext(context.Background(),
		[]driftlog.Entry{{Time: time.Now(), Attrs: map[string]string{driftlog.AttrWeather: "snow"}}}, nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnsupportedMediaType || apiErr.Code != CodeCodecUnsupported {
		t.Fatalf("JSON batch: %v, want 415 %q", err, CodeCodecUnsupported)
	}
	st, err := c.StatusContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.LogRows != 0 {
		t.Fatalf("refused batch landed %d rows", st.LogRows)
	}
}

func TestBadSinceParam(t *testing.T) {
	c, _, _ := newEnv(t)
	resp, err := c.HTTP.Get(c.BaseURL + "/v1/versions?since=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	c, _, _ := newEnv(t)
	resp, err := c.HTTP.Get(c.BaseURL + "/v1/ingest/batch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestManualModeOverHTTP(t *testing.T) {
	c, world, base := newEnv(t)
	rng := tensor.NewRand(3030, 1)
	day := weather.Day(8)
	entries := make([]driftlog.Entry, 200)
	samples := make([][]float64, len(entries))
	for i := range entries {
		class := i % 8
		x := world.Sample(class, rng)
		cond := "clear-day"
		if i%2 == 0 {
			x = world.Corrupt(x, imagesim.Snow, imagesim.DefaultSeverity, rng)
			cond = "snow"
		}
		msp := tensor.Max(tensor.Softmax(base.LogitsOne(x)))
		entries[i] = driftlog.Entry{
			Time:  day.Add(time.Duration(i) * time.Minute),
			Drift: msp < 0.95,
			Attrs: map[string]string{
				driftlog.AttrWeather:  cond,
				driftlog.AttrLocation: []string{"A", "B", "C"}[i%3],
				driftlog.AttrDevice:   "dev0",
			},
		}
		samples[i] = x
	}
	if _, err := c.IngestBatchContext(context.Background(), entries, samples); err != nil {
		t.Fatal(err)
	}
	// 1. Diagnose only: causes returned, nothing deployed.
	causes, err := c.DiagnoseContext(context.Background(), AnalyzeRequest{Now: day.AddDate(0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(causes) == 0 {
		t.Fatal("no causes diagnosed")
	}
	vs, err := c.VersionsContext(context.Background(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatal("diagnose must not deploy versions")
	}
	// 2. Operator selects the snow cause and adapts it.
	var selected []rca.Cause
	for _, cause := range causes {
		if cause.Matches(map[string]string{driftlog.AttrWeather: "snow"}) {
			selected = append(selected, cause)
		}
	}
	if len(selected) == 0 {
		t.Fatalf("no snow cause among %v", causes)
	}
	versions, err := c.AdaptContext(context.Background(), AdaptRequest{Causes: selected, Now: day.AddDate(0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != len(selected) {
		t.Fatalf("%d versions for %d causes", len(versions), len(selected))
	}
	// 3. The cause's metrics (possibly infinite risk ratios) survive the
	// JSON round trip and the version materializes.
	if _, err := adapt.Materialize(base, versions[0]); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptRequiresCauses(t *testing.T) {
	c, _, _ := newEnv(t)
	if _, err := c.AdaptContext(context.Background(), AdaptRequest{}); err == nil {
		t.Fatal("empty cause list must be rejected")
	}
}

// TestOversizedBodyRejected: a body past its route's bound answers 413 +
// body_too_large, whatever the route, and not the decode error the
// truncated read would otherwise make of it. The JSON body opens with a
// valid prefix, so the decoder reads on until the bound cuts it off.
func TestOversizedBodyRejected(t *testing.T) {
	h := NewServer(cloud.NewService(nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(7, 1)), cloud.DefaultConfig()),
		WithLogger(discardLogger()))
	// filler streams n bytes of x without holding them.
	filler := func(n int64) io.Reader { return io.LimitReader(repeatByte('x'), n) }
	cases := []struct {
		name, path, contentType string
		body                    io.Reader
	}{
		{"batch binary", "/v1/ingest/batch", ContentTypeBinary, filler(maxBatchBodyBytes + 1)},
		{"analyze", "/v1/analyze", ContentTypeJSON,
			io.MultiReader(strings.NewReader(`{"now":"`), filler(maxBodyBytes))},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("POST", tc.path, tc.body)
		req.Header.Set("Content-Type", tc.contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var env errorEnvelope
		_ = json.Unmarshal(rec.Body.Bytes(), &env)
		if rec.Code != http.StatusRequestEntityTooLarge || env.Error == nil || env.Error.Code != CodeBodyTooLarge {
			t.Errorf("%s: %d %.200q, want 413 %q", tc.name, rec.Code, rec.Body.String(), CodeBodyTooLarge)
		}
	}
}

// repeatByte is an endless reader of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

func TestConcurrentIngestOverHTTP(t *testing.T) {
	c, world, _ := newEnv(t)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	day := weather.Day(3)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := tensor.NewRand(uint64(w), 99)
			for i := 0; i < 25; i++ {
				x := world.Sample(i%8, rng)
				_, err := c.IngestBatchContext(context.Background(), []driftlog.Entry{{
					Time:  day.Add(time.Duration(i) * time.Minute),
					Drift: i%2 == 0,
					Attrs: map[string]string{
						driftlog.AttrWeather: "rain",
						driftlog.AttrDevice:  fmt.Sprintf("dev_%d", w),
					},
				}}, [][]float64{x})
				if err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st, err := c.StatusContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.LogRows != 200 || st.Samples != 200 {
		t.Fatalf("status %+v after concurrent ingest", st)
	}
}

func TestDeltaPullRoundTrip(t *testing.T) {
	c, world, base := newEnv(t)
	rng := tensor.NewRand(4040, 1)
	day := weather.Day(6)
	entries := make([]driftlog.Entry, 200)
	samples := make([][]float64, len(entries))
	for i := range entries {
		class := i % 8
		x := world.Sample(class, rng)
		cond := "clear-day"
		if i%2 == 0 {
			x = world.Corrupt(x, imagesim.Fog, imagesim.DefaultSeverity, rng)
			cond = "fog"
		}
		msp := tensor.Max(tensor.Softmax(base.LogitsOne(x)))
		entries[i] = driftlog.Entry{
			Time:  day.Add(time.Duration(i) * time.Minute),
			Drift: msp < 0.95,
			Attrs: map[string]string{
				driftlog.AttrWeather:  cond,
				driftlog.AttrLocation: []string{"A", "B", "C"}[i%3],
				driftlog.AttrDevice:   "dev0",
			},
		}
		samples[i] = x
	}
	if _, err := c.IngestBatchContext(context.Background(), entries, samples); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AnalyzeContext(context.Background(), AnalyzeRequest{Now: day.AddDate(0, 0, 1)}); err != nil {
		t.Fatal(err)
	}

	ref, err := c.RefBNContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.VersionsContext(context.Background(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	compact, err := c.DeltasContext(context.Background(), time.Time{}, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(compact) != len(full) {
		t.Fatalf("delta pull returned %d of %d versions", len(compact), len(full))
	}
	// The reconstructed versions must behave like the full ones.
	x := tensor.New(32, world.Dim())
	x.RandNormal(tensor.NewRand(5, 5), 0, 1.5)
	for i := range full {
		a, err := adapt.Materialize(base, full[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := adapt.Materialize(base, compact[i])
		if err != nil {
			t.Fatal(err)
		}
		la, lb := a.Logits(x), b.Logits(x)
		for j := range la.Data {
			diff := la.Data[j] - lb.Data[j]
			if diff < -0.05 || diff > 0.05 {
				t.Fatalf("version %s logit %d: |%v| too large", full[i].ID, j, diff)
			}
		}
	}
}
