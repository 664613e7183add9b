package cloud

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"nazar/internal/driftlog"
	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// TestConcurrentIngestRacingRunWindow is the concurrency contract of the
// sharded service, meant to run under -race: 32 device goroutines ingest
// (mixing per-entry and batched paths) while analysis/adaptation windows
// run concurrently. Nothing may race, no entry may be lost, and the final
// window must see every row.
func TestConcurrentIngestRacingRunWindow(t *testing.T) {
	const (
		devices    = 32
		perDevice  = 40
		midWindows = 3
	)
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(0xC0FFEE, 1))
	cfg := DefaultConfig()
	cfg.MinSamplesPerCause = 8
	cfg.AdaptCfg.Epochs = 1
	cfg.AdaptCfg.MinSteps = 2
	svc := NewService(base, cfg)

	day := time.Date(2020, 1, 15, 0, 0, 0, 0, time.UTC)
	entry := func(dev, i int) driftlog.Entry {
		weather := "clear-day"
		if i%2 == 0 {
			weather = "snow"
		}
		return driftlog.Entry{
			Time:  day.Add(time.Duration(i) * time.Minute),
			Drift: i%2 == 0,
			Attrs: map[string]string{
				driftlog.AttrDevice:   fmt.Sprintf("dev_%02d", dev),
				driftlog.AttrWeather:  weather,
				driftlog.AttrLocation: []string{"A", "B"}[dev%2],
			},
		}
	}
	sample := func(dev, i int) []float64 {
		rng := tensor.NewRand(uint64(dev), uint64(i)+1)
		x := make([]float64, 8)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		return x
	}

	var wg sync.WaitGroup
	errCh := make(chan error, devices+midWindows)

	// Half the devices use the per-entry path, half the batched path.
	for dev := 0; dev < devices; dev++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			if dev%2 == 0 {
				for i := 0; i < perDevice; i++ {
					ingestOne(svc, entry(dev, i), sample(dev, i))
				}
				return
			}
			const chunk = 10
			for s := 0; s < perDevice; s += chunk {
				entries := make([]driftlog.Entry, chunk)
				samples := make([][]float64, chunk)
				for i := range entries {
					entries[i] = entry(dev, s+i)
					samples[i] = sample(dev, s+i)
				}
				if err := svc.IngestBatchContext(context.Background(), entries, samples); err != nil {
					errCh <- err
					return
				}
			}
		}(dev)
	}

	// Analysis windows race the ingest storm.
	for w := 0; w < midWindows; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.RunWindowContext(context.Background(), time.Time{}, time.Time{}, day.AddDate(0, 0, 1)); err != nil {
				errCh <- err
			}
		}()
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	total := devices * perDevice
	if got := svc.Log().Len(); got != total {
		t.Fatalf("log has %d rows, want %d", got, total)
	}
	if got := svc.Samples().Len(); got != total {
		t.Fatalf("store has %d samples, want %d", got, total)
	}

	// A quiet final window sees every row and still finds the snow cause.
	res, err := svc.RunWindowContext(context.Background(), time.Time{}, time.Time{}, day.AddDate(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.LogRows != total {
		t.Fatalf("final window scanned %d rows, want %d", res.LogRows, total)
	}
	foundSnow := false
	for _, c := range res.Causes {
		if c.Matches(map[string]string{driftlog.AttrWeather: "snow", driftlog.AttrLocation: "A"}) ||
			c.Matches(map[string]string{driftlog.AttrWeather: "snow", driftlog.AttrLocation: "B"}) {
			foundSnow = true
		}
	}
	if !foundSnow {
		t.Fatalf("snow cause not recovered from %v", res.Causes)
	}

	// Every sample ID linked from the log must be gatherable.
	ids, err := svc.Log().All().SampleIDs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != total {
		t.Fatalf("%d sample links, want %d", len(ids), total)
	}
	if m := svc.Samples().Gather(ids); m == nil || m.Rows != total {
		t.Fatalf("gathered %v rows, want %d", m, total)
	}
}
