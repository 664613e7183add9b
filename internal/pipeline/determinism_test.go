package pipeline

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"nazar/internal/dataset"
	"nazar/internal/driftlog"
	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/tensor"
)

// TestRunDeterministicAcrossPoolWidths is the reproducibility contract of
// the parallelized analysis path: the same seeded workload must produce
// identical WindowStats whether the worker pool is forced to one worker
// or running at full width. Wall-clock durations are the only allowed
// difference.
func TestRunDeterministicAcrossPoolWidths(t *testing.T) {
	ds := dataset.NewCityscapes(dataset.CityscapesConfig{Total: 1200, Devices: 2, Seed: 42})
	base := TrainBase(ds, nn.ArchResNet18, 8, 42)

	runAt := func(workers int) *Result {
		t.Helper()
		tensor.SetMaxWorkers(workers)
		defer tensor.SetMaxWorkers(0)
		cfg := DefaultConfig(Nazar, 42)
		cfg.Windows = 3
		res, err := Run(ds, base, cfg)
		if err != nil {
			t.Fatalf("run at %d workers: %v", workers, err)
		}
		return res
	}

	seq := runAt(1)
	par := runAt(8)

	if len(seq.Windows) != len(par.Windows) {
		t.Fatalf("window counts diverge: %d vs %d", len(seq.Windows), len(par.Windows))
	}
	for i := range seq.Windows {
		a, b := seq.Windows[i], par.Windows[i]
		// Durations are wall-clock measurements, not results.
		a.RCADuration, b.RCADuration = 0, 0
		a.AdaptDuration, b.AdaptDuration = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("window %d diverges across pool widths:\n  1 worker: %+v\n  8 workers: %+v", i, a, b)
		}
	}
}

// TestModelPassDeterministicAcrossPoolWidths extends the pool-width
// contract down to the compute substrate introduced with the blocked
// kernels: a full train step (fused forward, loss, backward) over
// shapes large enough to cross the parallel threshold must produce
// bit-identical logits and gradients at width 1 and width 8.
func TestModelPassDeterministicAcrossPoolWidths(t *testing.T) {
	// 128×96 inputs through an ArchResNet50 (width 96) put every matmul
	// orientation above the parallel threshold.
	build := func() (*nn.Network, *tensor.Matrix, []int) {
		rng := tensor.NewRand(77, 5)
		net := nn.NewClassifier(nn.ArchResNet50, 96, 12, rng)
		x := tensor.New(128, 96)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		labels := make([]int, x.Rows)
		for i := range labels {
			labels[i] = i % 12
		}
		return net, x, labels
	}

	type pass struct {
		logits *tensor.Matrix
		grads  []*tensor.Matrix
	}
	runAt := func(workers int) pass {
		tensor.SetMaxWorkers(workers)
		defer tensor.SetMaxWorkers(0)
		net, x, labels := build()
		logits := net.Forward(x, nn.Train)
		_, dlogits := nn.CrossEntropy(logits, labels)
		net.Backward(dlogits)
		var grads []*tensor.Matrix
		for _, p := range net.Params() {
			grads = append(grads, p.Grad.Clone())
		}
		return pass{logits: logits.Clone(), grads: grads}
	}

	seq := runAt(1)
	par := runAt(8)
	for i := range seq.logits.Data {
		if math.Float64bits(seq.logits.Data[i]) != math.Float64bits(par.logits.Data[i]) {
			t.Fatalf("logits diverge across pool widths at %d: %v vs %v",
				i, seq.logits.Data[i], par.logits.Data[i])
		}
	}
	for k := range seq.grads {
		for i := range seq.grads[k].Data {
			if math.Float64bits(seq.grads[k].Data[i]) != math.Float64bits(par.grads[k].Data[i]) {
				t.Fatalf("gradient %d diverges across pool widths at %d", k, i)
			}
		}
	}
}

// TestAnalysisDeterministicAcrossIndexAndPoolWidths extends the
// pool-width contract to the bitset-indexed analytics: root-cause
// analysis over the same synthetic drift log must produce identical
// causes at pool widths 1 and 8. (That the index answers what a row scan
// would is pinned in driftlog's differential tests.)
func TestAnalysisDeterministicAcrossIndexAndPoolWidths(t *testing.T) {
	s := driftlog.NewStore()
	base := time.Unix(0, 0).UTC()
	var batch []driftlog.Entry
	for i := 0; i < 5000; i++ {
		weather := []string{"clear-day", "rain", "snow", "fog"}[i%4]
		drift := i%17 == 0
		if weather == "fog" {
			drift = i%3 != 0
		}
		batch = append(batch, driftlog.Entry{
			Time:     base.Add(time.Duration(i) * time.Second),
			Drift:    drift,
			SampleID: -1,
			Attrs: map[string]string{
				driftlog.AttrWeather:  weather,
				driftlog.AttrLocation: []string{"Hamburg", "Zurich", "Bremen"}[i%3],
				driftlog.AttrDevice:   []string{"dev_a", "dev_b"}[i%2],
			},
		})
	}
	s.AppendBatch(batch)

	var got [2][]rca.Cause
	for i, workers := range []int{1, 8} {
		tensor.SetMaxWorkers(workers)
		causes, err := rca.AnalyzeContext(context.Background(), s.All(), rca.DefaultConfig(), rca.Full)
		tensor.SetMaxWorkers(0)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		got[i] = causes
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("analysis diverges across pool widths:\n%v\n%v", got[0], got[1])
	}
	if len(got[0]) == 0 {
		t.Fatal("synthetic log produced no causes")
	}
}

// TestRunSameOverEitherEdge is the edge contract: the workload of
// TestRunDeterministicAcrossPoolWidths run in process and over a clean
// wire (the default binary frames, no faults) must produce identical
// WindowStats — accuracies, causes and version counts. Wall-clock
// durations are the only allowed difference. The windowed case retires versions after one
// analysis without their cause, so cause keys must cross the wire too.
func TestRunSameOverEitherEdge(t *testing.T) {
	ds := dataset.NewCityscapes(dataset.CityscapesConfig{Total: 1200, Devices: 2, Seed: 42})
	base := TrainBase(ds, nn.ArchResNet18, 8, 42)

	for _, tc := range []struct {
		name       string
		cumulative bool
		retire     int
	}{
		{"cumulative", true, 0},
		{"windowed_retire", false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runOver := func(wire *Wire) *Result {
				t.Helper()
				cfg := DefaultConfig(Nazar, 42)
				cfg.Windows = 3
				cfg.CumulativeAnalysis = tc.cumulative
				cfg.RetireAfter = tc.retire
				cfg.Wire = wire
				res, err := Run(ds, base, cfg)
				if err != nil {
					t.Fatalf("run (wire %v): %v", wire != nil, err)
				}
				return res
			}

			local := runOver(nil)
			dropped := false
			for i := 1; i < len(local.Windows); i++ {
				dropped = dropped || local.Windows[i].VersionCount < local.Windows[i-1].VersionCount
			}
			if tc.retire > 0 && !dropped {
				t.Fatal("no version was retired: the case no longer exercises retirement")
			}
			wire := runOver(&Wire{})

			if len(local.Windows) != len(wire.Windows) {
				t.Fatalf("window counts diverge: %d vs %d", len(local.Windows), len(wire.Windows))
			}
			for i := range local.Windows {
				a, b := local.Windows[i], wire.Windows[i]
				a.RCADuration, b.RCADuration = 0, 0
				a.AdaptDuration, b.AdaptDuration = 0, 0
				if !reflect.DeepEqual(a, b) {
					t.Errorf("window %d diverges across edges:\n  local: %+v\n  wire:  %+v", i, a, b)
				}
			}
		})
	}
}
