package nn

import (
	"math"
	"testing"

	"nazar/internal/tensor"
)

func TestDropoutTrainEval(t *testing.T) {
	d := NewDropout(0.5, tensor.NewRand(1, 1))
	x := tensor.New(8, 16)
	x.Fill(1)
	// Eval/Adapt: identity (same backing data is fine).
	for _, m := range []Mode{Eval, Adapt} {
		y := d.Forward(x, m)
		for _, v := range y.Data {
			if v != 1 {
				t.Fatalf("%v mode must be identity", m)
			}
		}
	}
	// Train: some zeros, survivors scaled by 2, expectation preserved.
	y := d.Forward(x, Train)
	zeros, sum := 0, 0.0
	for _, v := range y.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(v-2) > 1e-12 {
			t.Fatalf("survivor scaled to %v, want 2", v)
		}
		sum += v
	}
	if zeros == 0 || zeros == len(y.Data) {
		t.Fatalf("implausible drop count %d", zeros)
	}
	mean := sum / float64(len(y.Data))
	if math.Abs(mean-1) > 0.3 {
		t.Fatalf("inverted dropout should preserve expectation: mean %v", mean)
	}
	// Backward routes gradients through the same mask.
	dout := tensor.New(8, 16)
	dout.Fill(1)
	dx := d.Backward(dout)
	for i, v := range y.Data {
		want := 0.0
		if v != 0 {
			want = 2
		}
		if dx.Data[i] != want {
			t.Fatalf("grad %d = %v, want %v", i, dx.Data[i], want)
		}
	}
}

func TestDropoutGradientCheck(t *testing.T) {
	rng := tensor.NewRand(2, 2)
	// With P=0 the layer is exact identity even in Train mode.
	net := NewNetwork(NewDense(4, 6, rng), NewDropout(0, rng), NewDense(6, 3, rng))
	x := randBatch(3, 5, 4)
	labels := []int{0, 1, 2, 0, 1}
	loss := func(l *tensor.Matrix) (float64, *tensor.Matrix) { return CrossEntropy(l, labels) }
	checkGradients(t, net, x, Train, loss, 1e-4)
}

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
