package nn

import (
	"testing"

	"nazar/internal/tensor"
)

func TestCalibrateTemperature(t *testing.T) {
	rng := tensor.NewRand(3, 3)
	// Build overconfident logits: true class logit +6.
	n, c := 200, 5
	logits := tensor.New(n, c)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		labels[i] = i % c
		for j := 0; j < c; j++ {
			logits.Row(i)[j] = rng.NormFloat64()
		}
		// Right 60% of the time but with huge margin -> overconfident.
		if i%10 < 6 {
			logits.Row(i)[labels[i]] += 6
		} else {
			logits.Row(i)[(labels[i]+1)%c] += 6
		}
	}
	// Wrap in a trivial "network" via a fake: use NLL directly.
	t1 := NLLAtTemperature(logits, labels, 1)
	// Search manually over the same range the calibrator uses.
	bestT, bestNLL := 1.0, t1
	for temp := 0.1; temp < 20; temp += 0.1 {
		if nll := NLLAtTemperature(logits, labels, temp); nll < bestNLL {
			bestT, bestNLL = temp, nll
		}
	}
	if bestT <= 1.5 {
		t.Fatalf("overconfident logits should want T > 1.5, grid says %v", bestT)
	}
	// TemperatureScaledMSP softens confidence.
	raw := TemperatureScaledMSP(logits.Row(0), 1)
	soft := TemperatureScaledMSP(logits.Row(0), bestT)
	if soft >= raw {
		t.Fatalf("higher temperature should soften MSP: %v vs %v", soft, raw)
	}
}

func TestCalibrateTemperatureOnNetwork(t *testing.T) {
	rng := tensor.NewRand(4, 4)
	net := NewClassifier(ArchResNet18, 4, 3, rng)
	x := randBatch(5, 60, 4)
	labels := make([]int, 60)
	for i := range labels {
		labels[i] = i % 3
	}
	temp, err := CalibrateTemperature(net, x, labels)
	if err != nil {
		t.Fatal(err)
	}
	if temp <= 0 || temp > 20 {
		t.Fatalf("temperature %v out of range", temp)
	}
	// The calibrated temperature must not raise NLL vs T=1.
	logits := net.Logits(x)
	if NLLAtTemperature(logits, labels, temp) > NLLAtTemperature(logits, labels, 1)+1e-9 {
		t.Fatal("calibration increased NLL")
	}
	if _, err := CalibrateTemperature(net, tensor.New(0, 4), nil); err == nil {
		t.Fatal("empty calibration set must error")
	}
}
