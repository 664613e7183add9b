package nn

import (
	"math"
	"testing"
	"testing/quick"

	"nazar/internal/tensor"
)

// lossFn pairs a forward-pass loss with its dL/dlogits for grad checks.
type lossFn func(logits *tensor.Matrix) (float64, *tensor.Matrix)

// checkGradients numerically verifies analytic parameter gradients of net
// under loss on input x, in the given mode.
func checkGradients(t *testing.T, net *Network, x *tensor.Matrix, mode Mode, loss lossFn, tol float64) {
	t.Helper()
	net.ZeroGrads()
	logits := net.Forward(x, mode)
	_, dlogits := loss(logits)
	net.Backward(dlogits)

	const eps = 1e-5
	for pi, p := range net.Params() {
		for i := range p.W.Data {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp, _ := loss(net.Forward(x, mode))
			p.W.Data[i] = orig - eps
			lm, _ := loss(net.Forward(x, mode))
			p.W.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := p.Grad.Data[i]
			if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
				t.Fatalf("param %d (%s) elem %d: analytic %v numeric %v", pi, p.Name, i, analytic, numeric)
			}
		}
	}
}

func smallNet(seed uint64) *Network {
	rng := tensor.NewRand(seed, 1)
	return NewNetwork(
		NewDense(4, 6, rng),
		NewBatchNorm(6),
		NewReLU(),
		NewDense(6, 3, rng),
	)
}

func randBatch(seed uint64, rows, cols int) *tensor.Matrix {
	x := tensor.New(rows, cols)
	x.RandNormal(tensor.NewRand(seed, 2), 0, 1)
	return x
}

func TestCrossEntropyGradient(t *testing.T) {
	net := smallNet(10)
	x := randBatch(11, 5, 4)
	labels := []int{0, 1, 2, 0, 1}
	loss := func(l *tensor.Matrix) (float64, *tensor.Matrix) { return CrossEntropy(l, labels) }
	checkGradients(t, net, x, Train, loss, 1e-4)
}

func TestEntropyGradient(t *testing.T) {
	net := smallNet(20)
	x := randBatch(21, 6, 4)
	loss := func(l *tensor.Matrix) (float64, *tensor.Matrix) { return Entropy(l) }
	checkGradients(t, net, x, Train, loss, 1e-4)
}

func TestMarginalEntropyGradient(t *testing.T) {
	net := smallNet(30)
	x := randBatch(31, 4, 4)
	loss := func(l *tensor.Matrix) (float64, *tensor.Matrix) {
		return MarginalEntropyInto(tensor.New(l.Rows, l.Cols), l)
	}
	checkGradients(t, net, x, Train, loss, 1e-4)
}

func TestEvalModeGradient(t *testing.T) {
	// Eval-mode BN is a fixed affine map; gradients must still be exact
	// (Odin needs input gradients at inference time).
	net := smallNet(40)
	// Push non-trivial running stats first.
	net.Forward(randBatch(41, 32, 4), Train)
	x := randBatch(42, 3, 4)
	labels := []int{2, 0, 1}
	loss := func(l *tensor.Matrix) (float64, *tensor.Matrix) { return CrossEntropy(l, labels) }
	checkGradients(t, net, x, Eval, loss, 1e-4)
}

func TestInputGradient(t *testing.T) {
	net := smallNet(50)
	x := randBatch(51, 2, 4)
	labels := []int{1, 2}
	net.ZeroGrads()
	logits := net.Forward(x, Eval)
	_, dlogits := CrossEntropy(logits, labels)
	dx := net.Backward(dlogits)

	const eps = 1e-5
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp, _ := CrossEntropy(net.Forward(x, Eval), labels)
		x.Data[i] = orig - eps
		lm, _ := CrossEntropy(net.Forward(x, Eval), labels)
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-dx.Data[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("input grad %d: analytic %v numeric %v", i, dx.Data[i], numeric)
		}
	}
}

func TestBatchNormNormalizes(t *testing.T) {
	bn := NewBatchNorm(3)
	x := randBatch(60, 64, 3)
	x.Scale(5)
	for i := 0; i < x.Rows; i++ {
		for j, b := range []float64{10, -7, 3} {
			x.Row(i)[j] += b
		}
	}
	y := bn.Forward(x, Train)
	means := y.ColMeansInto(make([]float64, 3))
	vars := y.ColVariancesInto(make([]float64, 3), means)
	for j := 0; j < 3; j++ {
		if math.Abs(means[j]) > 1e-9 {
			t.Fatalf("col %d mean %v", j, means[j])
		}
		if math.Abs(vars[j]-1) > 1e-6 {
			t.Fatalf("col %d var %v", j, vars[j])
		}
	}
}

func TestBatchNormRunningStats(t *testing.T) {
	bn := NewBatchNorm(2)
	x := tensor.FromRows([][]float64{{4, 0}, {6, 0}})
	bn.Forward(x, Train)
	// After one update with momentum 0.1: mean = 0.9*0 + 0.1*5 = 0.5.
	if math.Abs(bn.RunMean[0]-0.5) > 1e-12 {
		t.Fatalf("RunMean = %v", bn.RunMean[0])
	}
	// Eval mode must use running stats, not batch stats.
	y := bn.Forward(tensor.FromRows([][]float64{{0.5, 0}}), Eval)
	if math.Abs(y.At(0, 0)) > 1e-9 {
		t.Fatalf("eval norm of running mean should be 0, got %v", y.At(0, 0))
	}
}

func TestBatchNormSingleRowFallsBackToRunning(t *testing.T) {
	bn := NewBatchNorm(2)
	bn.RunMean[0] = 1
	x := tensor.FromRows([][]float64{{1, 0}})
	before := bn.RunMean[0]
	y := bn.Forward(x, Adapt)
	if math.Abs(y.At(0, 0)) > 1e-9 {
		t.Fatalf("single-row adapt should use running stats, got %v", y.At(0, 0))
	}
	if bn.RunMean[0] != before {
		t.Fatal("single-row forward must not update running stats")
	}
}

func TestTrainingConverges(t *testing.T) {
	rng := tensor.NewRand(70, 1)
	// Two well-separated Gaussian blobs.
	n := 200
	x := tensor.New(n, 4)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		for j := 0; j < 4; j++ {
			center := -2.0
			if c == 1 {
				center = 2
			}
			x.Row(i)[j] = center + rng.NormFloat64()
		}
	}
	net := NewClassifier(ArchResNet18, 4, 2, rng)
	Fit(net, x, labels, TrainConfig{Epochs: 20, BatchSize: 32, Rng: rng})
	if acc := net.Accuracy(x, labels); acc < 0.95 {
		t.Fatalf("training accuracy = %v, want >= 0.95", acc)
	}
}

func TestAdamDecreasesLoss(t *testing.T) {
	net := smallNet(80)
	x := randBatch(81, 16, 4)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % 3
	}
	opt := NewAdam(0.01)
	first := -1.0
	var last float64
	for step := 0; step < 50; step++ {
		net.ZeroGrads()
		logits := net.Forward(x, Train)
		loss, dlogits := CrossEntropy(logits, labels)
		if first < 0 {
			first = loss
		}
		last = loss
		net.Backward(dlogits)
		opt.Step(net.Params())
	}
	if last >= first {
		t.Fatalf("Adam did not decrease loss: %v -> %v", first, last)
	}
}

func TestFreezeExceptBN(t *testing.T) {
	net := NewClassifier(ArchResNet34, 8, 4, tensor.NewRand(90, 1))
	net.FreezeExceptBN()
	frozen, free := 0, 0
	for _, p := range net.Params() {
		if p.Frozen {
			frozen++
		} else {
			free++
			if p.Name != "gamma" && p.Name != "beta" {
				t.Fatalf("non-BN param %q unfrozen", p.Name)
			}
		}
	}
	if free == 0 || frozen == 0 {
		t.Fatalf("frozen=%d free=%d", frozen, free)
	}

	// A frozen param must not move under optimization.
	x := randBatch(91, 8, 8)
	net.ZeroGrads()
	logits := net.Forward(x, Adapt)
	_, dlogits := Entropy(logits)
	net.Backward(dlogits)
	var denseW *Param
	for _, p := range net.Params() {
		if p.Name == "W" {
			denseW = p
			break
		}
	}
	before := denseW.W.Clone()
	NewSGD(0.1, 0, 0).Step(net.Params())
	for i := range before.Data {
		if denseW.W.Data[i] != before.Data[i] {
			t.Fatal("frozen weight moved")
		}
	}
}

// TestBackwardParamsMatchesBackward pins the two backward passes to each
// other: on the TENT configuration and on a fully trainable network,
// BackwardParams leaves bit-equal gradients on every trainable parameter,
// and neither pass ever writes a frozen parameter's gradient.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	for _, tc := range []struct {
		name   string
		freeze bool
		mode   Mode
	}{{"tent", true, Adapt}, {"trainable", false, Train}} {
		full := NewClassifier(ArchResNet50, 24, 6, tensor.NewRand(31, 1))
		if tc.freeze {
			// Freezing must clear what an earlier pass accumulated.
			full.Backward(backwardInput(full, tc.mode))
			full.FreezeExceptBN()
		}
		params := full.Clone()
		full.ZeroGrads()
		full.Backward(backwardInput(full, tc.mode))
		params.BackwardParams(backwardInput(params, tc.mode))

		trainable := 0
		for i, p := range full.Params() {
			q := params.Params()[i]
			if p.Frozen != q.Frozen {
				t.Fatalf("%s: param %d frozen %v vs %v", tc.name, i, p.Frozen, q.Frozen)
			}
			if !p.Frozen {
				trainable++
			}
			nonZero := false
			for j, g := range p.Grad.Data {
				if math.Float64bits(g) != math.Float64bits(q.Grad.Data[j]) {
					t.Fatalf("%s: param %d (%s) elem %d: Backward %v, BackwardParams %v", tc.name, i, p.Name, j, g, q.Grad.Data[j])
				}
				nonZero = nonZero || g != 0
			}
			if p.Frozen && nonZero {
				t.Fatalf("%s: frozen param %d (%s) has a gradient", tc.name, i, p.Name)
			}
			if !p.Frozen && !nonZero {
				t.Fatalf("%s: trainable param %d (%s) got no gradient", tc.name, i, p.Name)
			}
		}
		if trainable == 0 {
			t.Fatalf("%s: no trainable parameter", tc.name)
		}
	}
}

// backwardInput forwards a fixed batch and returns the entropy gradient
// at the logits.
func backwardInput(net *Network, mode Mode) *tensor.Matrix {
	_, dl := Entropy(net.Forward(randBatch(32, 16, 24), mode))
	return dl
}

// TestForwardFromFrozenPrefix: rows gathered from ForwardFrozenPrefix and
// entered above the prefix produce the logits, BN statistics and
// gradients of a full forward over the same rows, bit for bit.
func TestForwardFromFrozenPrefix(t *testing.T) {
	full := NewClassifier(ArchResNet34, 24, 6, tensor.NewRand(33, 1))
	if h, from := full.ForwardFrozenPrefix(randBatch(34, 4, 24)); h != nil || from != 0 {
		t.Fatalf("trainable first layer reported as a frozen prefix (from=%d)", from)
	}
	full.FreezeExceptBN()
	split := full.Clone()

	pool := randBatch(34, 200, 24)
	prefix, from := split.ForwardFrozenPrefix(pool)
	defer tensor.PutMatrix(prefix)
	if from != 1 || prefix.Rows != pool.Rows {
		t.Fatalf("prefix from=%d rows=%d", from, prefix.Rows)
	}
	sel := []int{199, 3, 77, 42, 120, 5, 64, 11}
	batch, hidden := tensor.New(len(sel), pool.Cols), tensor.New(len(sel), prefix.Cols)
	for i, r := range sel {
		copy(batch.Row(i), pool.Row(r))
		copy(hidden.Row(i), prefix.Row(r))
	}
	want := full.Forward(batch, Adapt)
	got := split.ForwardFrom(from, hidden, Adapt)
	for i, v := range want.Data {
		if math.Float64bits(v) != math.Float64bits(got.Data[i]) {
			t.Fatalf("logit %d: %v vs %v", i, v, got.Data[i])
		}
	}
	_, dl := Entropy(want)
	full.BackwardParams(dl)
	split.BackwardParams(dl)
	for i, p := range full.Params() {
		for j, g := range p.Grad.Data {
			if math.Float64bits(g) != math.Float64bits(split.Params()[i].Grad.Data[j]) {
				t.Fatalf("param %d (%s) grad %d differs", i, p.Name, j)
			}
		}
	}
	for i, bn := range full.BatchNorms() {
		for j, v := range bn.RunMean {
			if math.Float64bits(v) != math.Float64bits(split.BatchNorms()[i].RunMean[j]) {
				t.Fatalf("BN %d running mean %d differs", i, j)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	net := smallNet(100)
	c := net.Clone()
	c.Params()[0].W.Data[0] += 100
	c.BatchNorms()[0].RunMean[0] = 42
	if net.Params()[0].W.Data[0] == c.Params()[0].W.Data[0] {
		t.Fatal("clone shares weights")
	}
	if net.BatchNorms()[0].RunMean[0] == 42 {
		t.Fatal("clone shares BN running stats")
	}
	// Clone must produce identical predictions before divergence.
	net2 := smallNet(100)
	c2 := net2.Clone()
	x := randBatch(101, 5, 4)
	a := net2.Logits(x)
	b := c2.Logits(x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("clone predictions differ")
		}
	}
}

func TestBNSnapshotRoundTrip(t *testing.T) {
	net := NewClassifier(ArchResNet50, 8, 4, tensor.NewRand(110, 1))
	net.Forward(randBatch(111, 32, 8), Train) // move running stats
	snap := CaptureBN(net)
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeBNSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewClassifier(ArchResNet50, 8, 4, tensor.NewRand(110, 1))
	if err := decoded.ApplyTo(fresh); err != nil {
		t.Fatal(err)
	}
	for i, bn := range fresh.BatchNorms() {
		orig := net.BatchNorms()[i]
		for j := range bn.RunMean {
			if bn.RunMean[j] != orig.RunMean[j] {
				t.Fatal("running mean not restored")
			}
		}
	}
}

func TestBNSnapshotDimMismatch(t *testing.T) {
	a := NewClassifier(ArchResNet18, 8, 4, tensor.NewRand(1, 1))
	b := NewClassifier(ArchResNet50, 8, 4, tensor.NewRand(1, 1))
	if err := CaptureBN(a).ApplyTo(b); err == nil {
		t.Fatal("expected layer-count mismatch error")
	}
}

func TestNetSnapshotRoundTrip(t *testing.T) {
	net := NewClassifier(ArchResNet18, 6, 3, tensor.NewRand(120, 1))
	net.Forward(randBatch(121, 16, 6), Train)
	data, err := CaptureNet(net).Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeNetSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewClassifier(ArchResNet18, 6, 3, tensor.NewRand(999, 1))
	if err := snap.ApplyTo(fresh); err != nil {
		t.Fatal(err)
	}
	x := randBatch(122, 4, 6)
	a, b := net.Logits(x), fresh.Logits(x)
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > 1e-12 {
			t.Fatal("restored model diverges")
		}
	}
}

func TestBNVersionMuchSmallerThanModel(t *testing.T) {
	net := NewClassifier(ArchResNet50, 64, 40, tensor.NewRand(130, 1))
	ratio := float64(net.SizeBytes()) / float64(CaptureBN(net).SizeBytes())
	// The paper reports 217× for ResNet50; our MLP analogue should
	// still be at least an order of magnitude.
	if ratio < 10 {
		t.Fatalf("model/BN size ratio = %v, want >= 10", ratio)
	}
}

func TestPerClassAccuracy(t *testing.T) {
	net := smallNet(140)
	x := randBatch(141, 10, 4)
	labels := []int{0, 0, 1, 1, 1, 2, 2, 2, 2, 2}
	acc, present := PerClassAccuracy(net, x, labels, 4)
	for c := 0; c < 3; c++ {
		if !present[c] {
			t.Fatalf("class %d should be present", c)
		}
		if acc[c] < 0 || acc[c] > 1 {
			t.Fatalf("class %d accuracy %v out of range", c, acc[c])
		}
	}
	if present[3] {
		t.Fatal("class 3 has no examples")
	}
}

func TestArchCapacityOrdering(t *testing.T) {
	var sizes []int
	for _, a := range Archs {
		net := NewClassifier(a, 64, 10, tensor.NewRand(1, 1))
		sizes = append(sizes, net.NumParams())
	}
	if !(sizes[0] < sizes[1] && sizes[1] < sizes[2]) {
		t.Fatalf("capacity not increasing: %v", sizes)
	}
}

func TestModeString(t *testing.T) {
	if Train.String() != "train" || Eval.String() != "eval" || Adapt.String() != "adapt" {
		t.Fatal("Mode.String mismatch")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode string")
	}
}

// Property: entropy loss is non-negative and bounded by log(C); its
// gradient steps (on raw logits) reduce entropy.
func TestQuickEntropyDescent(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRand(seed, 3)
		logits := tensor.New(4, 5)
		logits.RandNormal(rng, 0, 2)
		prev, grad := Entropy(logits)
		if prev < 0 || prev > math.Log(5)+1e-9 {
			return false
		}
		logits.AddScaled(grad, -0.5)
		next, _ := Entropy(logits)
		return next <= prev+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: cross-entropy gradient rows sum to ~0 (softmax minus one-hot,
// averaged).
func TestQuickCrossEntropyGradRowSum(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRand(seed, 4)
		logits := tensor.New(3, 4)
		logits.RandNormal(rng, 0, 2)
		_, grad := CrossEntropy(logits, []int{0, 1, 2})
		for i := 0; i < grad.Rows; i++ {
			var s float64
			for _, v := range grad.Row(i) {
				s += v
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForwardEvalResNet50(b *testing.B) {
	net := NewClassifier(ArchResNet50, 64, 40, tensor.NewRand(1, 1))
	x := randBatch(2, 1, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, Eval)
	}
}

func BenchmarkTrainStepResNet50(b *testing.B) {
	net := NewClassifier(ArchResNet50, 64, 40, tensor.NewRand(1, 1))
	x := randBatch(3, 32, 64)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % 40
	}
	opt := NewSGD(0.05, 0.9, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		logits := net.Forward(x, Train)
		_, dl := CrossEntropy(logits, labels)
		net.BackwardParams(dl)
		opt.Step(net.Params())
	}
}

func TestGroupedMarginalEntropyGradient(t *testing.T) {
	net := smallNet(60)
	x := randBatch(61, 6, 4) // 3 groups of 2
	loss := func(l *tensor.Matrix) (float64, *tensor.Matrix) {
		return GroupedMarginalEntropyInto(tensor.New(l.Rows, l.Cols), l, 2)
	}
	checkGradients(t, net, x, Train, loss, 1e-4)
}

func TestGroupedMarginalEntropyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-divisible rows")
		}
	}()
	GroupedMarginalEntropyInto(tensor.New(5, 3), tensor.New(5, 3), 2)
}

func TestQuantizeBounds(t *testing.T) {
	net := smallNet(200)
	if _, err := Quantize(net, 1); err == nil {
		t.Fatal("bits=1 must error")
	}
	if _, err := Quantize(net, 17); err == nil {
		t.Fatal("bits=17 must error")
	}
}

func TestQuantizePreservesHighBits(t *testing.T) {
	net := smallNet(201)
	x := randBatch(202, 8, 4)
	orig := net.Logits(x)
	q, err := Quantize(net, 16)
	if err != nil {
		t.Fatal(err)
	}
	ql := q.Logits(x)
	for i := range orig.Data {
		if math.Abs(orig.Data[i]-ql.Data[i]) > 0.05*(1+math.Abs(orig.Data[i])) {
			t.Fatalf("16-bit quantization moved logit %d: %v -> %v", i, orig.Data[i], ql.Data[i])
		}
	}
	// The base network must be untouched.
	again := net.Logits(x)
	for i := range orig.Data {
		if orig.Data[i] != again.Data[i] {
			t.Fatal("Quantize mutated the source network")
		}
	}
}

func TestQuantizeDistortionGrowsAsBitsShrink(t *testing.T) {
	net := smallNet(203)
	x := randBatch(204, 16, 4)
	orig := net.Logits(x)
	var prev float64
	for _, bits := range []int{12, 8, 4, 2} {
		q, err := Quantize(net, bits)
		if err != nil {
			t.Fatal(err)
		}
		ql := q.Logits(x)
		var dist float64
		for i := range orig.Data {
			d := ql.Data[i] - orig.Data[i]
			dist += d * d
		}
		if dist < prev {
			t.Fatalf("distortion should grow as bits shrink: %v at %d bits < %v", dist, bits, prev)
		}
		prev = dist
	}
}

func TestQuantizedSizeBytes(t *testing.T) {
	net := NewClassifier(ArchResNet50, 64, 40, tensor.NewRand(1, 1))
	full := net.SizeBytes()
	q8 := QuantizedSizeBytes(net, 8)
	q4 := QuantizedSizeBytes(net, 4)
	if !(q4 < q8 && q8 < full) {
		t.Fatalf("sizes not shrinking: full=%d q8=%d q4=%d", full, q8, q4)
	}
}
