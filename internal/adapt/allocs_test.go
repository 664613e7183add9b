package adapt

import (
	"testing"

	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// TestAdaptSteadyStateAllocs pins the TENT hot loop: once the runner's
// buffers and the optimizer state are warm, the step AdaptContext runs
// (gather from the frozen-prefix buffer, forward above it, entropy +
// reliability filter, parameter-only backward, Adam) performs no matrix
// allocations at pool width 1.
func TestAdaptSteadyStateAllocs(t *testing.T) {
	tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(0)

	rng := tensor.NewRand(21, 4)
	base := nn.NewClassifier(nn.ArchResNet34, 24, 6, rng)
	samples := tensor.New(64, 24)
	samples.RandNormal(rng, 0, 1)
	idx := make([]int, samples.Rows)
	for i := range idx {
		idx[i] = i
	}

	run := newRunner(base, samples, Config{Method: TENT, EntropyFilter: 0.9}.withDefaults())
	defer run.release()
	if run.prefix == nil {
		t.Fatal("TENT runner did not take the frozen-prefix path")
	}
	step := func() { run.step(idx) }
	for i := 0; i < 3; i++ {
		step()
	}
	if n := testing.AllocsPerRun(10, step); n > 0.5 {
		t.Fatalf("steady-state TENT step allocates %v per run, want ~0", n)
	}
}
