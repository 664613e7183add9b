package adapt

import (
	"context"
	"fmt"
	"testing"

	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// Adaptation benchmarks, recorded in BENCH_kernels.json by
// `make bench-kernels` next to nn's BenchmarkTrainStep.

func benchPool(rows, dim int) (*nn.Network, *tensor.Matrix) {
	rng := tensor.NewRand(0xBE, 2)
	base := nn.NewClassifier(nn.ArchResNet50, dim, 12, rng)
	pool := tensor.New(rows, dim)
	pool.RandNormal(rng, 0, 1)
	return base, pool
}

// stepMACs is the cost model of one TENT step over rows samples (see
// DESIGN.md): the forward product of every Dense layer the step enters,
// plus the dL/dinput product of every Dense layer above the first
// batch-norm — the earliest layer with a trainable parameter.
func stepMACs(net *nn.Network, from, rows int) int {
	macs, aboveBN := 0, false
	for i, l := range net.LayersList {
		switch l := l.(type) {
		case *nn.BatchNorm:
			aboveBN = true
		case *nn.Dense:
			if i >= from {
				macs += rows * l.In * l.Out
			}
			if aboveBN {
				macs += rows * l.In * l.Out
			}
		}
	}
	return macs
}

// BenchmarkTENTStep is one optimizer step of the default configuration
// on a full 64-row batch of 64-feature samples.
func BenchmarkTENTStep(b *testing.B) {
	base, pool := benchPool(64, 64)
	idx := make([]int, pool.Rows)
	for i := range idx {
		idx[i] = i
	}
	run := newRunner(base, pool, Config{}.withDefaults())
	defer run.release()
	run.step(idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.step(idx)
	}
	b.ReportMetric(float64(stepMACs(run.net, run.from, len(idx))), "MACs/step")
}

// BenchmarkAdaptRun is a whole AdaptContext run at the cloud's settings
// (MinSteps 30): a by-cause-sized pool that re-visits its few rows every
// epoch, and a clean-sized pool that makes three passes.
func BenchmarkAdaptRun(b *testing.B) {
	for _, rows := range []int{16, 1024} {
		b.Run(fmt.Sprintf("pool=%d", rows), func(b *testing.B) {
			base, pool := benchPool(rows, 64)
			cfg := DefaultConfig()
			cfg.MinSteps = 30
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Rng = tensor.NewRand(1, 1)
				if _, err := AdaptContext(context.Background(), base, pool, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
