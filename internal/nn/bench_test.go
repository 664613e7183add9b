package nn

import (
	"testing"

	"nazar/internal/tensor"
)

// Steady-state model benchmarks. After warm-up every pass reuses
// per-layer scratch, so allocs/op should read ~0 — `make bench-kernels`
// records these numbers in BENCH_kernels.json.

func benchNet(b *testing.B) (*Network, *tensor.Matrix, []int) {
	b.Helper()
	rng := tensor.NewRand(0xBE, 1)
	net := NewClassifier(ArchResNet50, 96, 12, rng)
	x := randBatch(3, 64, 96)
	labels := make([]int, x.Rows)
	for i := range labels {
		labels[i] = i % 12
	}
	return net, x, labels
}

func BenchmarkForwardEval(b *testing.B) {
	net, x, _ := benchNet(b)
	net.Forward(x, Eval)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, Eval)
	}
}

func BenchmarkTrainStep(b *testing.B) {
	net, x, labels := benchNet(b)
	opt := NewAdam(1e-3)
	var dlogits tensor.Matrix
	step := func() {
		net.ZeroGrads()
		logits := net.Forward(x, Train)
		_, grad := CrossEntropyInto(&dlogits, logits, labels)
		net.BackwardParams(grad)
		opt.Step(net.Params())
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkLogitsOne(b *testing.B) {
	net, _, _ := benchNet(b)
	x := make([]float64, 96)
	for i := range x {
		x[i] = float64(i) * 0.01
	}
	net.LogitsOne(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.LogitsOne(x)
	}
}
