package macrosim

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/httpapi"
	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/tensor"
	"nazar/internal/transport"
)

func testScenario() *Scenario {
	sc := &Scenario{
		Name:           "unit",
		Seed:           11,
		Devices:        2000,
		Windows:        3,
		TicksPerWindow: 8,
		Cohorts: []CohortSpec{
			{Name: "mid", Weight: 0.7, Hardware: "mid", BaseAccuracy: 0.9, FalsePositiveRate: 0.03},
			{Name: "iot", Weight: 0.3, Hardware: "iot", BaseAccuracy: 0.8, FalsePositiveRate: 0.05},
		},
		Churn: ChurnSpec{Rate: 0.2},
	}
	sc.applyDefaults()
	return sc
}

func runScenario(t *testing.T, sc *Scenario, opts ...Option) *Summary {
	t.Helper()
	eng, err := New(sc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestEngineDeterministicAcrossPoolWidths is the acceptance gate: a
// 100k-device scenario produces byte-identical summaries at worker-pool
// widths 1 and 8.
func TestEngineDeterministicAcrossPoolWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-device run in -short mode")
	}
	sc, err := LoadScenario("testdata/scenarios/rollout-rollback.json")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Devices != 100000 {
		t.Fatalf("acceptance scenario is %d devices, want 100000", sc.Devices)
	}
	var outs [][]byte
	for _, workers := range []int{1, 8} {
		sum := runScenario(t, sc, WithWorkers(workers))
		b, err := sum.MarshalStable()
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, b)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatal("summaries differ between pool widths 1 and 8")
	}
}

// TestDiurnalRate pins the traffic curve's edge cases.
func TestDiurnalRate(t *testing.T) {
	cases := []struct {
		name string
		d    DiurnalSpec
		tick int
		want float64
	}{
		{"zero amplitude is flat", DiurnalSpec{BaseRate: 0.4, Amplitude: 0, Period: 24}, 7, 0.4},
		{"peak tick hits base*(1+amp)", DiurnalSpec{BaseRate: 0.5, Amplitude: 0.6, Period: 24, PeakTick: 14}, 14, 0.8},
		{"trough is base*(1-amp)", DiurnalSpec{BaseRate: 0.5, Amplitude: 0.6, Period: 24, PeakTick: 14}, 26, 0.2},
		{"full amplitude bottoms at zero", DiurnalSpec{BaseRate: 0.5, Amplitude: 1, Period: 10, PeakTick: 0}, 5, 0},
		{"clamped at one", DiurnalSpec{BaseRate: 0.9, Amplitude: 1, Period: 10, PeakTick: 0}, 0, 1},
	}
	for _, tc := range cases {
		if got := tc.d.Rate(tc.tick); !almost(got, tc.want) {
			t.Errorf("%s: Rate(%d) = %v, want %v", tc.name, tc.tick, got, tc.want)
		}
	}
	// Periodicity: the curve repeats exactly every Period ticks.
	d := DiurnalSpec{BaseRate: 0.5, Amplitude: 0.7, Period: 24, PeakTick: 3}
	for tick := 0; tick < 24; tick++ {
		if a, b := d.Rate(tick), d.Rate(tick+24); !almost(a, b) {
			t.Fatalf("curve not periodic at tick %d: %v vs %v", tick, a, b)
		}
	}
}

func almost(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestChurnGenerator pins the churn edge cases on tiny fleets.
func TestChurnGenerator(t *testing.T) {
	t.Run("rate zero never offline", func(t *testing.T) {
		sc := testScenario()
		sc.Churn = ChurnSpec{Rate: 0, SpoolCap: 64}
		sum := runScenario(t, sc)
		for _, w := range sum.Windows {
			if w.OfflineDevices != 0 || w.DeliveredLate != 0 || w.SpoolDropped != 0 {
				t.Fatalf("window %d: offline=%d late=%d dropped=%d with churn 0",
					w.Window, w.OfflineDevices, w.DeliveredLate, w.SpoolDropped)
			}
		}
		if sum.Totals.Delivered != sum.Totals.Emitted {
			t.Fatalf("churnless fleet delivered %d of %d emitted", sum.Totals.Delivered, sum.Totals.Emitted)
		}
	})
	t.Run("rate one always offline", func(t *testing.T) {
		sc := testScenario()
		sc.Churn = ChurnSpec{Rate: 1, SpoolCap: 4}
		sum := runScenario(t, sc)
		for _, w := range sum.Windows {
			if w.OfflineDevices != int64(sc.Devices) {
				t.Fatalf("window %d: %d offline, want all %d", w.Window, w.OfflineDevices, sc.Devices)
			}
			if w.Delivered != 0 {
				t.Fatalf("window %d: %d delivered with the whole fleet offline", w.Window, w.Delivered)
			}
		}
		// Emission continues while offline: spools fill to cap, the rest drops.
		if sum.Totals.SpoolDropped == 0 {
			t.Fatal("tiny spools under full churn never overflowed")
		}
	})
	t.Run("spool drains after rejoin", func(t *testing.T) {
		sc := testScenario()
		sc.Devices = 1 // single-device fleet: the spool story in isolation
		sc.Windows = 8
		sc.Churn = ChurnSpec{Rate: 0.5, SpoolCap: 64}
		sc.Diurnal = DiurnalSpec{BaseRate: 1, Period: sc.TicksPerWindow}
		sum := runScenario(t, sc)
		var late, offline int64
		for _, w := range sum.Windows {
			late += w.DeliveredLate
			offline += w.OfflineDevices
		}
		if offline == 0 {
			t.Skip("seed kept the device online all run")
		}
		if late == 0 {
			t.Fatal("device went offline but nothing drained late")
		}
		// Nothing vanishes: emitted = delivered + dropped + still-spooled.
		if sum.Totals.Delivered+sum.Totals.SpoolDropped > sum.Totals.Emitted {
			t.Fatalf("accounting leak: delivered %d + dropped %d > emitted %d",
				sum.Totals.Delivered, sum.Totals.SpoolDropped, sum.Totals.Emitted)
		}
	})
	t.Run("partial-window offline drains same window", func(t *testing.T) {
		sc := testScenario()
		sc.Churn = ChurnSpec{Rate: 1, OfflineTicks: 4, SpoolCap: 64}
		sc.Diurnal = DiurnalSpec{BaseRate: 1, Period: sc.TicksPerWindow}
		sum := runScenario(t, sc)
		w0 := sum.Windows[0]
		if w0.DeliveredLate == 0 {
			t.Fatal("mid-window rejoin drained nothing late")
		}
		if w0.Delivered != w0.Emitted {
			t.Fatalf("window 0 delivered %d of %d emitted despite same-window rejoin",
				w0.Delivered, w0.Emitted)
		}
	})
}

// TestEngineDriftEvent checks the drift plumbing end to end: an event
// window shows depressed accuracy and elevated drift flags.
func TestEngineDriftEvent(t *testing.T) {
	sc := testScenario()
	sc.Churn.Rate = 0
	sc.Drift = []DriftEvent{{
		Corruption: "snow", FromWindow: 1, ToWindow: 1,
		Fraction: 0.5, AccuracyDrop: 0.3, DetectRate: 0.8,
	}}
	sum := runScenario(t, sc)
	clean, dirty := sum.Windows[0], sum.Windows[1]
	if dirty.Accuracy >= clean.Accuracy-0.05 {
		t.Errorf("event window accuracy %v not depressed vs clean %v", dirty.Accuracy, clean.Accuracy)
	}
	if dirty.DriftRate <= clean.DriftRate+0.1 {
		t.Errorf("event window drift rate %v not elevated vs clean %v", dirty.DriftRate, clean.DriftRate)
	}
	if post := sum.Windows[2]; post.Accuracy <= dirty.Accuracy {
		t.Errorf("post-event window accuracy %v did not recover above %v", post.Accuracy, dirty.Accuracy)
	}
}

// TestEngineRolloutRollback runs the regressed-candidate scenario and
// checks the control plane withdrew it without exceeding the ceiling.
func TestEngineRolloutRollback(t *testing.T) {
	sc, err := LoadScenario("testdata/scenarios/rollout-rollback.json")
	if err != nil {
		t.Fatal(err)
	}
	sc.Devices = 20000 // plenty of canary evidence, fraction of the runtime
	reg := obs.NewRegistry()
	sum := runScenario(t, sc, WithObserver(reg))
	if sum.Rollout == nil {
		t.Fatal("no rollout summary")
	}
	if sum.Rollout.FinalState != string(cloud.RolloutRolledBack) {
		t.Fatalf("final state %q, want rolled-back", sum.Rollout.FinalState)
	}
	if sum.Rollout.MaxPercent > 25 {
		t.Fatalf("ramp reached %v%%, ceiling is 25%%", sum.Rollout.MaxPercent)
	}
	if sum.Rollout.FinalPercent != 0 {
		t.Fatalf("final percent %v after rollback, want 0", sum.Rollout.FinalPercent)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"nazar_rollout_rollbacks_total", "nazar_macrosim_delivered_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}

// TestEngineSinkBridge wires the simulator's sampled entry stream into
// a real transport.Client talking to a real cloud.Service over HTTP:
// the macro layer and the micro wire agree on the entry schema.
func TestEngineSinkBridge(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(1, 2))
	svc := cloud.NewService(base, cloud.DefaultConfig())
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	ts := httptest.NewServer(httpapi.NewServer(svc, httpapi.WithLogger(quiet)))
	defer ts.Close()
	client := transport.NewClient(ts.URL, transport.WithConfig(transport.Config{
		MaxBatch:      64,
		FlushInterval: time.Hour,
		SpoolCapacity: 1 << 16,
		Name:          "macrosim-sink",
		Logger:        quiet,
	}))

	sc := testScenario()
	sc.SinkEvery = 10
	sum := runScenario(t, sc, WithSink(client))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := client.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if sum.Totals.SinkReported == 0 {
		t.Fatal("sink saw no entries")
	}
	if got := int64(svc.Log().Len()); got < sum.Totals.SinkReported {
		t.Fatalf("cloud log has %d entries, sink reported %d", got, sum.Totals.SinkReported)
	}
	// The sampled entries carry the schema the analyzer keys on.
	var e driftlog.Entry
	svc.Log().Each(func(i int, row driftlog.Entry) {
		if i == 0 {
			e = row
		}
	})
	for _, attr := range []string{"device", "model", "weather", "cohort"} {
		if e.Attrs[attr] == "" {
			t.Errorf("sampled entry missing attr %q: %v", attr, e.Attrs)
		}
	}
}

// TestEngineContextCancel checks a canceled run stops between windows.
func TestEngineContextCancel(t *testing.T) {
	eng, err := New(testScenario())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx); err == nil {
		t.Fatal("canceled run returned nil error")
	}
}
