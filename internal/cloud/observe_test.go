package cloud

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/tensor"
	"nazar/internal/weather"
)

// ingestDriftWorkload streams a fog-drifted workload without needing a
// trained model: fog rows drift, clear rows do not, and every row
// carries an uploaded sample so adaptation has material to work on.
func ingestDriftWorkload(svc *Service, n int) {
	day := weather.Day(10)
	for i := 0; i < n; i++ {
		cond, drift := "clear-day", false
		if i%2 == 0 {
			cond, drift = "fog", true
		}
		entry := driftlog.Entry{
			Time:  day.Add(time.Duration(i) * time.Minute),
			Drift: drift,
			Attrs: map[string]string{
				driftlog.AttrWeather:  cond,
				driftlog.AttrLocation: []string{"Hamburg", "Zurich"}[i%2],
				driftlog.AttrDevice:   "dev",
			},
		}
		ingestOne(svc, entry, []float64{float64(i), float64(i % 7), 1, 0, 0, 0, 0, 0.5})
	}
}

// TestRunWindowCancellationMidWindow cancels the context mid-window —
// between RCA and adaptation (via the alerter hook, which fires exactly
// there), and with the by-cause and clean runs in flight (via MEMO's
// augmentation function, which runs inside an optimizer step) — and checks the window aborts with
// context.Canceled, deploys nothing, leaves the base model alone and
// leaks no goroutines.
func TestRunWindowCancellationMidWindow(t *testing.T) {
	for _, inFlight := range []bool{false, true} {
		t.Run(fmt.Sprintf("inFlight=%v", inFlight), func(t *testing.T) {
			base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(11, 1))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := DefaultConfig()
			cfg.MinSamplesPerCause = 4
			var steps atomic.Int32
			if inFlight {
				// The first optimizer step of any run (the fog cause or
				// the clean pool) stops them all.
				cfg.AdaptCfg.Method = adapt.MEMO
				cfg.AdaptCfg.Augment = func(x []float64, _ *rand.Rand) []float64 {
					steps.Add(1)
					cancel()
					return x
				}
			}
			reg := obs.NewRegistry()
			svc := NewService(base, cfg, WithObserver(reg))
			ingestDriftWorkload(svc, 200)

			// Alerts are emitted after RCA discovers causes and before the
			// adaptation fan-out launches — a deterministic mid-window hook.
			alerted := false
			svc.SetAlerter(AlertFunc(func(Alert) {
				alerted = true
				if !inFlight {
					cancel()
				}
			}))

			before := runtime.NumGoroutine()
			res, err := svc.RunWindowContext(ctx, weather.Day(10), weather.Day(11), weather.Day(11))
			if !alerted {
				t.Fatal("no cause was diagnosed; the workload should produce a fog cause")
			}
			if inFlight && steps.Load() == 0 {
				t.Fatal("no adaptation run was in flight when the window was cancelled")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err %v, want context.Canceled", err)
			}
			if len(res.Versions) != 0 {
				t.Fatalf("cancelled window produced %d versions", len(res.Versions))
			}
			if got := svc.VersionsSince(time.Time{}); len(got) != 0 {
				t.Fatalf("cancelled window deployed %d versions", len(got))
			}
			if svc.Base() != base {
				t.Fatal("cancelled window replaced the base model")
			}

			// Any worker-pool goroutines the aborted fan-out spawned must wind
			// down; settle-loop instead of a fixed sleep.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("goroutines %d after cancelled window, started with %d", after, before)
			}

			// The failed cycle must be visible operationally.
			var buf strings.Builder
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"nazar_window_runs_total 1", "nazar_window_errors_total 1"} {
				if !strings.Contains(buf.String(), want) {
					t.Fatalf("exposition missing %q", want)
				}
			}
		})
	}
}

// TestRunWindowPreCancelled covers the entry gate: an already-cancelled
// context never touches the stores.
func TestRunWindowPreCancelled(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(12, 1))
	svc := NewService(base, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc.IngestBatchContext(ctx, []driftlog.Entry{{Time: time.Now(), Attrs: map[string]string{}}}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("ingest err %v, want context.Canceled", err)
	}
	if svc.Log().Len() != 0 {
		t.Fatal("cancelled ingest must not append")
	}
	if err := svc.IngestBatchContext(ctx, []driftlog.Entry{{Time: time.Now()}}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err %v, want context.Canceled", err)
	}
}

// TestWithClock pins stage timing to a fake clock: each clock call
// advances one second, so both stage durations must come out exactly 1s.
func TestWithClock(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(13, 1))
	var ticks int
	clock := func() time.Time {
		ticks++
		return time.Unix(int64(ticks), 0)
	}
	svc := NewService(base, DefaultConfig(), withClock(clock))
	res, err := svc.RunWindowContext(context.Background(), time.Time{}, time.Time{}, time.Unix(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.RCADuration != time.Second {
		t.Fatalf("RCA duration %v, want 1s from the fake clock", res.RCADuration)
	}
	if res.AdaptDuration != time.Second {
		t.Fatalf("adapt duration %v, want 1s from the fake clock", res.AdaptDuration)
	}
	if ticks == 0 {
		t.Fatal("fake clock was never consulted")
	}
}

// TestObserverCounters checks ingest counters and store gauges flow into
// the exposition.
func TestObserverCounters(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(15, 1))
	reg := obs.NewRegistry()
	svc := NewService(base, DefaultConfig(), WithObserver(reg))
	if svc.metrics == nil {
		t.Fatal("no metrics after WithObserver")
	}
	ingestOne(svc, driftlog.Entry{Time: time.Now(), Attrs: map[string]string{}}, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	if err := svc.IngestBatchContext(context.Background(), []driftlog.Entry{
		{Time: time.Now(), Attrs: map[string]string{}},
		{Time: time.Now(), Attrs: map[string]string{}},
	}, [][]float64{{4, 5, 6, 7, 8, 9, 10, 11}, nil}); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"nazar_ingest_entries_total 3",
		"nazar_ingest_batches_total 2", // the one-row ingest is a batch too
		"nazar_ingest_samples_total 2",
		"nazar_ingest_sample_bytes_total 128",
		"nazar_driftlog_rows 3",
		"nazar_sketch_attrs 0", // nothing tiered up
		"nazar_samples_retained 2",
		"nazar_versions_deployed 0",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("exposition missing %q\n%s", want, got)
		}
	}
	avx := "nazar_tensor_avx 0\n"
	if tensor.UsesAVX() {
		avx = "nazar_tensor_avx 1\n"
	}
	if !strings.Contains(got, avx) {
		t.Fatalf("exposition missing %q\n%s", avx, got)
	}
}

// TestObserverSketchFeed: once an attribute tiers up, a scrape shows it, and
// the index holds no bitmap for it — here six rows of three distinct
// versions under one weather, one row per shard (no device), so the six
// bitmaps are the weather's, one per shard.
func TestObserverSketchFeed(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(17, 1))
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Sketch.Threshold = 2
	svc := NewService(base, cfg, WithObserver(reg))
	var batch []driftlog.Entry
	for i := 0; i < 6; i++ {
		batch = append(batch, driftlog.Entry{Time: time.Unix(int64(i), 0), Attrs: map[string]string{
			"app_version": fmt.Sprintf("1.%d", i%3), driftlog.AttrWeather: "snow"}})
	}
	if err := svc.IngestBatchContext(context.Background(), batch, nil); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"nazar_sketch_attrs 1\n", "nazar_driftlog_index_bitmaps 6\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q\n%s", want, buf.String())
		}
	}
}

// TestObserverMineWork: the mining work counters move by exactly what one
// diagnosis counted — fim's own snapshot before and after — and are labelled
// per apriori level.
func TestObserverMineWork(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(18, 1))
	reg := obs.NewRegistry()
	svc := NewService(base, DefaultConfig(), WithObserver(reg))
	ingestDriftWorkload(svc, 200)
	series := []string{"nazar_fim_pairs_counted_total", `nazar_fim_candidates_total{level="1"}`,
		`nazar_fim_candidates_total{level="2"}`, `nazar_fim_candidates_total{level="3+"}`}
	before := make([]float64, len(series))
	for i, name := range series {
		before[i] = expositionValue(t, reg, name)
	}
	st0 := fim.ReadMineStats()
	if _, err := svc.DiagnoseContext(context.Background(), weather.Day(10), weather.Day(11), weather.Day(11)); err != nil {
		t.Fatal(err)
	}
	st1 := fim.ReadMineStats()
	want := []uint64{st1.PairsCounted - st0.PairsCounted, st1.Candidates[0] - st0.Candidates[0],
		st1.Candidates[1] - st0.Candidates[1], st1.Candidates[2] - st0.Candidates[2]}
	if want[0] == 0 || want[1] == 0 {
		t.Fatalf("the diagnosis counted nothing: %v", want)
	}
	for i, name := range series {
		if got := expositionValue(t, reg, name) - before[i]; got != float64(want[i]) {
			t.Fatalf("%s moved by %v, fim counted %d", name, got, want[i])
		}
	}
}

// TestObserverAdaptRuns: every adaptation run of a window is observed
// under its kind, so overlapped runs stay tellable apart.
func TestObserverAdaptRuns(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(16, 1))
	cfg := DefaultConfig()
	cfg.MinSamplesPerCause = 4
	reg := obs.NewRegistry()
	svc := NewService(base, cfg, WithObserver(reg))
	ingestDriftWorkload(svc, 200)
	res, err := svc.RunWindowContext(context.Background(), weather.Day(10), weather.Day(11), weather.Day(11))
	if err != nil {
		t.Fatal(err)
	}
	byCause := 0
	for _, v := range res.Versions {
		if !v.IsClean() {
			byCause++
		}
	}
	if byCause == 0 || byCause == len(res.Versions) {
		t.Fatalf("want by-cause and clean versions, got %d of %d by-cause", byCause, len(res.Versions))
	}
	if got := expositionValue(t, reg, `nazar_adapt_run_seconds_count{kind="by_cause"}`); got != float64(byCause) {
		t.Fatalf("by_cause runs observed %v, want %d", got, byCause)
	}
	if got := expositionValue(t, reg, `nazar_adapt_run_seconds_count{kind="clean"}`); got != 1 {
		t.Fatalf("clean runs observed %v, want 1", got)
	}
}

// withClock substitutes the time source used for stage timing and
// observability (defaults to time.Now).
func withClock(clock func() time.Time) Option {
	return func(s *Service) {
		if clock != nil {
			s.clock = clock
		}
	}
}
