package device

import (
	"strings"
	"testing"
	"time"

	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/tensor"
)

// TestDeviceMetrics runs inferences through an instrumented device and
// checks the fleet counters and MSP histogram move.
func TestDeviceMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	base := nn.NewClassifier(nn.ArchResNet18, 8, 4, tensor.NewRand(60, 1))
	d := New(Config{
		ID: "dev0", Location: "Hamburg",
		SampleRate: 1.0,
		Metrics:    m,
		Rng:        tensor.NewRand(61, 1),
	}, base)

	for i := 0; i < 5; i++ {
		d.Infer(time.Now(), []float64{1, 0, 0, 1, 0, 0, 1, 0}, nil)
	}

	if got := m.inferences.Value(); got != 5 {
		t.Fatalf("inference counter %d, want 5", got)
	}
	if got := m.sampled.Value(); got != 5 {
		t.Fatalf("sampled counter %d, want 5 at rate 1.0", got)
	}
	if got := m.drifted.Value() + m.clean.Value(); got != 5 {
		t.Fatalf("verdict counters sum to %d, want 5", got)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"nazar_device_inferences_total 5",
		`nazar_device_drift_total{verdict="clean"}`,
		"nazar_device_msp_bucket",
		"nazar_device_msp_count 5\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}

// TestNilMetricsSafe proves the uninstrumented path is a no-op.
func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	m.observe(Inference{Drift: true, Sampled: true, VersionID: "v"})
}
