package detect

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"nazar/internal/imagesim"
	"nazar/internal/metrics"
	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// testRig trains one small model on a synthetic world and exposes clean
// and drifted evaluation sets; shared (and trained once) across tests.
type testRig struct {
	world  *imagesim.World
	net    *nn.Network
	trainX *tensor.Matrix
	trainY []int
	cleanX *tensor.Matrix
	cleanY []int
	driftX *tensor.Matrix
}

var (
	rigOnce sync.Once
	rig     *testRig
)

func getRig(t *testing.T) *testRig {
	t.Helper()
	rigOnce.Do(func() {
		const classes = 12
		world := imagesim.NewWorld(imagesim.DefaultConfig(classes, 77))
		rng := tensor.NewRand(77, 1)
		per := 40
		trainX := tensor.New(per*classes, world.Dim())
		trainY := make([]int, per*classes)
		i := 0
		for c := 0; c < classes; c++ {
			for k := 0; k < per; k++ {
				trainY[i] = c
				copy(trainX.Row(i), world.Sample(c, rng))
				i++
			}
		}
		net := nn.NewClassifier(nn.ArchResNet34, world.Dim(), classes, rng)
		nn.Fit(net, trainX, trainY, nn.TrainConfig{Epochs: 25, BatchSize: 32, Rng: rng})

		nEval := 240
		cleanX := tensor.New(nEval, world.Dim())
		cleanY := make([]int, nEval)
		for i := 0; i < nEval; i++ {
			c := i % classes
			cleanY[i] = c
			copy(cleanX.Row(i), world.Sample(c, rng))
		}
		// Drifted set: a mix of all 16 corruptions at severity 3.
		driftX := tensor.New(nEval, world.Dim())
		for i := 0; i < nEval; i++ {
			c := i % classes
			corr := imagesim.AllCorruptions[i%len(imagesim.AllCorruptions)]
			copy(driftX.Row(i), world.Corrupt(world.Sample(c, rng), corr, imagesim.DefaultSeverity, rng))
		}
		rig = &testRig{world: world, net: net, trainX: trainX, trainY: trainY,
			cleanX: cleanX, cleanY: cleanY, driftX: driftX}
	})
	return rig
}

func (r *testRig) scores(s Scorer, x *tensor.Matrix) []float64 {
	return ScoreBatch(s, r.net.Logits(x))
}

func TestScorersOrderCleanAboveDrift(t *testing.T) {
	r := getRig(t)
	for _, s := range []Scorer{MSP{}, NegEntropy{}, Energy{}, MaxLogit{}} {
		clean := metrics.Mean(r.scores(s, r.cleanX))
		drift := metrics.Mean(r.scores(s, r.driftX))
		if clean <= drift {
			t.Errorf("%s: mean clean score %v should exceed drifted %v", s.Name(), clean, drift)
		}
	}
}

func TestMSPThresholdF1(t *testing.T) {
	r := getRig(t)
	clean := r.scores(MSP{}, r.cleanX)
	drift := r.scores(MSP{}, r.driftX)
	c := EvalScores(clean, drift, DefaultMSPThreshold)
	if f1 := c.F1(); f1 < 0.55 {
		t.Fatalf("MSP@0.9 F1 = %v, want >= 0.55 (paper reports ~0.73)", f1)
	}
}

func TestMSPScoreRange(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRand(seed, 1)
		logits := make([]float64, 6)
		for i := range logits {
			logits[i] = rng.NormFloat64() * 4
		}
		s := MSP{}.Score(logits)
		return s > 1.0/6-1e-12 && s <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdDetector(t *testing.T) {
	d := NewMSPThreshold()
	confident := []float64{10, 0, 0} // MSP ~ 1
	uncertain := []float64{0.1, 0, 0.05}
	if d.Detect(confident) {
		t.Fatal("confident output flagged as drift")
	}
	if !d.Detect(uncertain) {
		t.Fatal("uncertain output not flagged")
	}
}

func TestSweepAndBestF1(t *testing.T) {
	r := getRig(t)
	clean := r.scores(MSP{}, r.cleanX)
	drift := r.scores(MSP{}, r.driftX)
	var thresholds []float64
	for th := 0.1; th <= 1.0; th += 0.05 {
		thresholds = append(thresholds, th)
	}
	points := Sweep(clean, drift, thresholds)
	if len(points) != len(thresholds) {
		t.Fatal("sweep size mismatch")
	}
	best := BestF1(points)
	if best.F1 < 0.55 {
		t.Fatalf("best F1 %v too low", best.F1)
	}
	// F1 should rise then fall across the sweep (unimodal-ish): the
	// extremes must not beat the best by definition.
	if points[0].F1 > best.F1 || points[len(points)-1].F1 > best.F1 {
		t.Fatal("BestF1 did not find maximum")
	}
}

func TestKSStatisticProperties(t *testing.T) {
	ref := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	ks, err := NewKSTest(ref, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Identical sample: statistic near 0.
	if s := ks.Statistic(ref); s > 0.12 {
		t.Fatalf("self statistic %v", s)
	}
	// Completely shifted sample: statistic 1.
	if s := ks.Statistic([]float64{5, 6, 7}); math.Abs(s-1) > 1e-12 {
		t.Fatalf("disjoint statistic %v", s)
	}
	if ks.CriticalValue(0) != math.Inf(1) {
		t.Fatal("critical value of empty batch")
	}
	if ks.DetectBatch(nil) {
		t.Fatal("empty batch must not detect")
	}
}

func TestKSTestEmptyReference(t *testing.T) {
	if _, err := NewKSTest(nil, 0.05); err == nil {
		t.Fatal("expected error")
	}
}

func TestKSBatchSizeTrend(t *testing.T) {
	// Figure 2: with larger batches the KS-test catches drift well; at
	// batch size ~1-2 it is poor.
	r := getRig(t)
	// Calibrate on a held-out clean half: the model is overconfident on
	// its own training data, which would bias the reference CDF.
	all := r.scores(MSP{}, r.cleanX)
	ks, err := NewKSTest(all[:len(all)/2], 0.05)
	if err != nil {
		t.Fatal(err)
	}
	clean := all[len(all)/2:]
	drift := r.scores(MSP{}, r.driftX)
	f1Small := KSBatchF1(ks, clean, drift, 2)
	f1Large := KSBatchF1(ks, clean, drift, 32)
	if f1Large <= f1Small {
		t.Fatalf("KS F1 should improve with batch size: b2=%v b32=%v", f1Small, f1Large)
	}
	if f1Large < 0.6 {
		t.Fatalf("KS F1 at batch 32 = %v, want >= 0.6", f1Large)
	}
}

func TestDetectionRate(t *testing.T) {
	if DetectionRate(nil, 0.9) != 0 {
		t.Fatal("empty detection rate")
	}
	got := DetectionRate([]float64{0.5, 0.95, 0.7, 0.99}, 0.9)
	if got != 0.5 {
		t.Fatalf("detection rate %v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if quantile(xs, 0) != 1 || quantile(xs, 1) != 5 || quantile(xs, 0.5) != 3 {
		t.Fatal("quantiles wrong")
	}
	if quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
}

func TestTable1Matrix(t *testing.T) {
	rows := Table1()
	if len(rows) != 8 {
		t.Fatalf("Table 1 has 8 methods, got %d", len(rows))
	}
	suitable := 0
	for _, m := range rows {
		if c := m.Caps; !c.NeedsSecondaryDataset && !c.NeedsSecondaryModel && !c.NeedsBackprop && !c.NeedsBatching {
			suitable++
			if m.Name != "Threshold" {
				t.Fatalf("only Threshold is fully suitable, got %s", m.Name)
			}
		}
	}
	if suitable != 1 {
		t.Fatalf("%d fully-suitable methods, want 1", suitable)
	}
	// Spot-check against the paper's matrix.
	byName := map[string]Capabilities{}
	for _, m := range rows {
		byName[m.Name] = m.Caps
	}
	if !byName["KS-test"].NeedsBatching {
		t.Fatal("KS-test needs batching")
	}
	if !byName["Odin"].NeedsBackprop || !byName["Odin"].NeedsSecondaryDataset {
		t.Fatal("Odin row wrong")
	}
	if !byName["GOdin"].NeedsBackprop || byName["GOdin"].NeedsSecondaryDataset {
		t.Fatal("GOdin row wrong")
	}
	if !byName["SSL"].NeedsSecondaryModel || !byName["CSI"].NeedsSecondaryModel {
		t.Fatal("SSL/CSI rows wrong")
	}
	if !byName["OE"].NeedsSecondaryDataset || !byName["MD"].NeedsSecondaryDataset {
		t.Fatal("OE/MD rows wrong")
	}
}

func TestOdinSeparatesDrift(t *testing.T) {
	r := getRig(t)
	odin := NewOdin(r.net, 0)
	var clean, drift float64
	const n = 40
	for i := 0; i < n; i++ {
		clean += odin.Score(r.cleanX.Row(i)) / n
		drift += odin.Score(r.driftX.Row(i)) / n
	}
	if clean <= drift {
		t.Fatalf("Odin clean %v should exceed drift %v", clean, drift)
	}
}

func TestGOdinSeparatesDrift(t *testing.T) {
	r := getRig(t)
	godin := NewGOdin(r.net, r.trainX, 0)
	var clean, drift float64
	const n = 40
	for i := 0; i < n; i++ {
		clean += godin.Score(r.cleanX.Row(i)) / n
		drift += godin.Score(r.driftX.Row(i)) / n
	}
	if clean <= drift {
		t.Fatalf("GOdin clean %v should exceed drift %v", clean, drift)
	}
}

func TestMahalanobisSeparatesDrift(t *testing.T) {
	r := getRig(t)
	md := NewMahalanobis(r.net, r.trainX, r.trainY, r.world.Classes(), 0)
	var clean, drift float64
	const n = 60
	for i := 0; i < n; i++ {
		clean += md.Distance(r.cleanX.Row(i)) / n
		drift += md.Distance(r.driftX.Row(i)) / n
	}
	if drift <= clean {
		t.Fatalf("Mahalanobis drift distance %v should exceed clean %v", drift, clean)
	}
	// With the threshold between the means, drifted inputs must be
	// flagged more often than clean ones.
	md.Threshold = (clean + drift) / 2
	cleanFlagged, driftFlagged := 0, 0
	for i := 0; i < n; i++ {
		if md.Detect(r.cleanX.Row(i)) {
			cleanFlagged++
		}
		if md.Detect(r.driftX.Row(i)) {
			driftFlagged++
		}
	}
	if driftFlagged <= cleanFlagged {
		t.Fatalf("flagged drift=%d clean=%d", driftFlagged, cleanFlagged)
	}
}

func TestOutlierExposureImprovesMargin(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	r := getRig(t)
	rng := tensor.NewRand(78, 1)
	// Auxiliary outliers: a held-out corruption family.
	out := r.world.CorruptBatch(r.trainX, imagesim.JPEG, 5, rng)
	oe := NewOutlierExposure(r.net, r.trainX, r.trainY, out, 0.9,
		OEConfig{Epochs: 2, BatchSize: 32, Rng: rng})
	var clean, drift float64
	const n = 60
	for i := 0; i < n; i++ {
		clean += oe.Score(r.cleanX.Row(i)) / n
		drift += oe.Score(r.driftX.Row(i)) / n
	}
	if clean <= drift {
		t.Fatalf("OE clean %v should exceed drift %v", clean, drift)
	}
}

func TestSelfSupervisedSeparatesDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	r := getRig(t)
	ssl := NewSelfSupervised(r.trainX, 0.5, SSLConfig{Transforms: 4, Epochs: 4, Rng: tensor.NewRand(79, 1)})
	var clean, drift float64
	const n = 60
	for i := 0; i < n; i++ {
		clean += ssl.Score(r.cleanX.Row(i)) / n
		drift += ssl.Score(r.driftX.Row(i)) / n
	}
	if clean <= drift {
		t.Fatalf("SSL clean %v should exceed drift %v", clean, drift)
	}
}

func TestUniformKL(t *testing.T) {
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	peaked := []float64{0.97, 0.01, 0.01, 0.01}
	if uniformKL(uniform) > 1e-9 {
		t.Fatalf("KL(uniform)=%v", uniformKL(uniform))
	}
	if uniformKL(peaked) <= uniformKL(uniform) {
		t.Fatal("peaked distribution should have higher uniform-KL")
	}
	if !math.IsInf(uniformKL([]float64{1, 0}), 1) {
		t.Fatal("zero probability should give +inf")
	}
}

func TestSignHelper(t *testing.T) {
	if sign(3) != 1 || sign(-2) != -1 || sign(0) != 0 {
		t.Fatal("sign broken")
	}
}

func TestCalibrateThreshold(t *testing.T) {
	r := getRig(t)
	clean := r.scores(MSP{}, r.cleanX)
	th := quantile(clean, 0.10)
	fpr := DetectionRate(clean, th)
	if fpr > 0.15 {
		t.Fatalf("calibrated threshold gives FPR %v, want <= 0.15", fpr)
	}
	// A calibrated threshold still catches drift far above its FPR.
	drift := r.scores(MSP{}, r.driftX)
	if rec := DetectionRate(drift, th); rec <= fpr {
		t.Fatalf("recall %v should exceed FPR %v", rec, fpr)
	}
}

func TestKNNSeparatesDrift(t *testing.T) {
	r := getRig(t)
	knn := NewKNN(r.net, r.trainX, 10, 0)
	var clean, drift float64
	const n = 60
	for i := 0; i < n; i++ {
		clean += knn.Distance(r.cleanX.Row(i)) / n
		drift += knn.Distance(r.driftX.Row(i)) / n
	}
	if drift <= clean {
		t.Fatalf("kNN drift distance %v should exceed clean %v", drift, clean)
	}
	knn.Threshold = (clean + drift) / 2
	cleanFlagged, driftFlagged := 0, 0
	for i := 0; i < n; i++ {
		if knn.Detect(r.cleanX.Row(i)) {
			cleanFlagged++
		}
		if knn.Detect(r.driftX.Row(i)) {
			driftFlagged++
		}
	}
	if driftFlagged <= cleanFlagged {
		t.Fatalf("flagged drift=%d clean=%d", driftFlagged, cleanFlagged)
	}
}

func TestKNNKthDistanceMonotoneInK(t *testing.T) {
	r := getRig(t)
	k1 := NewKNN(r.net, r.trainX, 1, 0)
	k20 := NewKNN(r.net, r.trainX, 20, 0)
	x := r.cleanX.Row(0)
	if k20.Distance(x) < k1.Distance(x) {
		t.Fatal("k-th NN distance must grow with k")
	}
}

// quantile returns the q-quantile (0..1) of xs by sorting a copy. The
// targetFPR-quantile of clean confidence scores is the threshold that
// flags about that fraction of clean inputs (drift is score < threshold):
// an operating point picked without any drifted data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(q * float64(len(s)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// uniformKL is KL(uniform ‖ p) up to a constant:
// −(1/C)Σ log p_c; lower means closer to uniform.
func uniformKL(p []float64) float64 {
	c := float64(len(p))
	var s float64
	for _, v := range p {
		if v <= 0 {
			return math.Inf(1)
		}
		s -= math.Log(v) / c
	}
	return s - math.Log(c)
}
