package experiments

import (
	"fmt"
	"math"
	"time"

	"nazar/internal/detect"
	"nazar/internal/imagesim"
	"nazar/internal/metrics"
	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// evalSets builds the §5.3 evaluation split: an equal split of clean
// images (negatives) and images drifted with the 16 corruption types at
// the given severity (positives).
func evalSets(r *animalsRig, perSide int, severity int, seed uint64) (clean, drift *tensor.Matrix, labels []int) {
	rng := tensor.NewRand(seed, 0xE7A1)
	clean = tensor.New(perSide, r.world.Dim())
	drift = tensor.New(perSide, r.world.Dim())
	labels = make([]int, perSide)
	for i := 0; i < perSide; i++ {
		c := i % r.world.Classes()
		labels[i] = c
		copy(clean.Row(i), r.world.Sample(c, rng))
		corr := imagesim.AllCorruptions[i%len(imagesim.AllCorruptions)]
		copy(drift.Row(i), r.world.Corrupt(r.world.Sample(c, rng), corr, severity, rng))
	}
	return clean, drift, labels
}

// measureNs times f per call over the rows of x (mean ns).
func measureNs(f func(x []float64), x *tensor.Matrix) float64 {
	n := min(40, x.Rows)
	// Warm up.
	for i := 0; i < 5; i++ {
		f(x.Row(i % x.Rows))
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		f(x.Row(i))
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// mspScores runs the model and scores every row with MSP.
func mspScores(net *nn.Network, x *tensor.Matrix) []float64 {
	return detect.ScoreBatch(detect.MSP{}, net.Logits(x))
}

// Table1Result carries the capability matrix plus a live sanity check of
// each implemented detector (mean clean vs drifted score).
type Table1Result struct {
	Matrix *Table
	Live   *Table
}

// Table1 reproduces the detector comparison matrix and instantiates every
// implemented method against the shared rig.
func Table1(o Options) (*Table1Result, error) {
	o = o.withDefaults()
	r := getAnimalsRig(o, nn.ArchResNet50)
	net := r.net(nn.ArchResNet50)

	matrix := &Table{
		ID:     "table1",
		Title:  "Detection method requirements (✗ = has the cost)",
		Header: []string{"Requirement"},
	}
	info := detect.Table1()
	for _, m := range info {
		matrix.Header = append(matrix.Header, m.Name)
	}
	rows := []struct {
		name string
		get  func(detect.Capabilities) bool
	}{
		{"No secondary dataset", func(c detect.Capabilities) bool { return c.NeedsSecondaryDataset }},
		{"No secondary model", func(c detect.Capabilities) bool { return c.NeedsSecondaryModel }},
		{"No backpropagation", func(c detect.Capabilities) bool { return c.NeedsBackprop }},
		{"No batching", func(c detect.Capabilities) bool { return c.NeedsBatching }},
	}
	for _, row := range rows {
		cells := []string{row.name}
		for _, m := range info {
			if row.get(m.Caps) {
				cells = append(cells, "✗")
			} else {
				cells = append(cells, "✓")
			}
		}
		matrix.AddRow(cells...)
	}

	// Live check: every implemented detector must score clean above
	// drifted on average; per-inference latency is reported relative to
	// plain inference (the paper rules out GOdin because perturbation
	// "triples the inference time").
	clean, drift, _ := evalSets(r, 160, imagesim.DefaultSeverity, o.Seed+1)
	inferNs := measureNs(func(x []float64) { net.LogitsOne(x) }, clean)
	live := &Table{
		ID:     "table1-live",
		Title:  "Implemented detectors: separation and per-inference cost",
		Header: []string{"Detector", "Clean", "Drifted", "Separates", "Cost vs inference"},
	}
	addLive := func(name string, score func(x []float64) float64, higherIsClean bool) {
		var cm, dm float64
		n := min(60, clean.Rows)
		for i := 0; i < n; i++ {
			cm += score(clean.Row(i)) / float64(n)
			dm += score(drift.Row(i)) / float64(n)
		}
		sep := cm > dm
		if !higherIsClean {
			sep = dm > cm
		}
		cost := measureNs(func(x []float64) { score(x) }, clean)
		live.AddRow(name, f3(cm), f3(dm), fmt.Sprintf("%v", sep),
			fmt.Sprintf("%.1fx", cost/inferNs))
	}
	addLive("threshold(msp)", func(x []float64) float64 { return detect.MSP{}.Score(net.LogitsOne(x)) }, true)
	odin := detect.NewOdin(net, 0)
	addLive("odin", odin.Score, true)
	godin := detect.NewGOdin(net, r.trainX, 0)
	addLive("godin", godin.Score, true)
	md := detect.NewMahalanobis(net, r.trainX, r.trainY, r.world.Classes(), 0)
	addLive("mahalanobis", md.Distance, false)
	knn := detect.NewKNN(net, r.trainX, 10, 0)
	addLive("knn", knn.Distance, false)
	if !o.Quick {
		rng := tensor.NewRand(o.Seed+2, 1)
		outliers := r.world.CorruptBatch(r.trainX, imagesim.JPEG, imagesim.MaxSeverity, rng)
		oe := detect.NewOutlierExposure(net, r.trainX, r.trainY, outliers, 0.9,
			detect.OEConfig{Epochs: 2, Rng: rng})
		addLive("outlier-exposure", oe.Score, true)
		ssl := detect.NewSelfSupervised(r.trainX, 0.5, detect.SSLConfig{Rng: rng})
		addLive("ssl/csi", ssl.Score, true)
	}
	return &Table1Result{Matrix: matrix, Live: live}, nil
}

// DetectorAUROCResult quantifies every implemented detector on the same
// clean/drifted split with AUROC — the threshold-free extension of
// Table 1's qualitative matrix.
type DetectorAUROCResult struct {
	AUROC map[string]float64
	Table *Table
}

// DetectorAUROC scores each detector's confidence (or negated distance)
// on identical clean and drifted sets. The paper's argument is that the
// free threshold method is competitive with methods that are orders of
// magnitude more expensive; the AUROC column makes that quantitative.
func DetectorAUROC(o Options) (*DetectorAUROCResult, error) {
	o = o.withDefaults()
	r := getAnimalsRig(o, nn.ArchResNet50)
	net := r.net(nn.ArchResNet50)
	perSide := 200
	if o.Quick {
		perSide = 120
	}
	clean, drift, _ := evalSets(r, perSide, imagesim.DefaultSeverity, o.Seed+30)

	res := &DetectorAUROCResult{AUROC: map[string]float64{}}
	table := &Table{ID: "table1-auroc",
		Title:  "AUROC of every implemented detector on the same split",
		Header: []string{"Detector", "AUROC"}}
	score := func(name string, f func(x []float64) float64) {
		cs := make([]float64, perSide)
		ds := make([]float64, perSide)
		for i := 0; i < perSide; i++ {
			cs[i] = f(clean.Row(i))
			ds[i] = f(drift.Row(i))
		}
		a := metrics.AUROC(cs, ds)
		res.AUROC[name] = a
		table.AddRow(name, f3(a))
	}
	score("threshold(msp)", func(x []float64) float64 { return (detect.MSP{}).Score(net.LogitsOne(x)) })
	odin := detect.NewOdin(net, 0)
	score("odin", odin.Score)
	godin := detect.NewGOdin(net, r.trainX, 0)
	score("godin", godin.Score)
	md := detect.NewMahalanobis(net, r.trainX, r.trainY, r.world.Classes(), 0)
	score("mahalanobis", func(x []float64) float64 { return -md.Distance(x) })
	knn := detect.NewKNN(net, r.trainX, 10, 0)
	score("knn", func(x []float64) float64 { return -knn.Distance(x) })
	if !o.Quick {
		rng := tensor.NewRand(o.Seed+31, 1)
		outliers := r.world.CorruptBatch(r.trainX, imagesim.JPEG, imagesim.MaxSeverity, rng)
		oe := detect.NewOutlierExposure(net, r.trainX, r.trainY, outliers, 0.9,
			detect.OEConfig{Epochs: 2, Rng: rng})
		score("outlier-exposure", oe.Score)
		ssl := detect.NewSelfSupervised(r.trainX, 0.5, detect.SSLConfig{Rng: rng})
		score("ssl/csi", ssl.Score)
	}
	table.Notes = append(table.Notes,
		"the free MSP threshold is competitive with detectors costing 10x per inference — the paper's Table 1 argument, quantified")
	res.Table = table
	return res, nil
}

// Fig2Point is one batch-size measurement.
type Fig2Point struct {
	BatchSize int
	F1        float64
}

// Fig2Result holds the KS-test-vs-threshold comparison.
type Fig2Result struct {
	Points      []Fig2Point // KS-test at batch sizes > 1
	ThresholdF1 float64     // MSP threshold at batch size 1
	Table       *Table
}

// Fig2 reproduces the F1-vs-batch-size comparison: KS-test on MSP scores
// at batch sizes 2..64 versus the plain MSP threshold (batch size 1,
// threshold 0.9-equivalent).
func Fig2(o Options) (*Fig2Result, error) {
	o = o.withDefaults()
	r := getAnimalsRig(o, nn.ArchResNet50)
	net := r.net(nn.ArchResNet50)
	perSide := 480
	if o.Quick {
		perSide = 240
	}
	clean, drift, _ := evalSets(r, perSide, imagesim.DefaultSeverity, o.Seed+3)
	cleanScores := mspScores(net, clean)
	driftScores := mspScores(net, drift)

	// Calibrate the KS reference on a held-out clean sample.
	ref := cleanScores[:perSide/2]
	cleanEval := cleanScores[perSide/2:]
	driftEval := driftScores[perSide/2:]
	ks, err := detect.NewKSTest(ref, 0.05)
	if err != nil {
		return nil, err
	}

	res := &Fig2Result{}
	thr := detect.EvalScores(cleanEval, driftEval, 0.95)
	res.ThresholdF1 = thr.F1()

	table := &Table{
		ID:     "fig2",
		Title:  "F1 of KS-test by batch size vs MSP threshold (batch=1)",
		Header: []string{"Batch size", "Method", "F1"},
	}
	table.AddRow("1", "threshold", f3(res.ThresholdF1))
	for _, bs := range []int{2, 4, 8, 16, 32, 64} {
		f1 := detect.KSBatchF1(ks, cleanEval, driftEval, bs)
		res.Points = append(res.Points, Fig2Point{BatchSize: bs, F1: f1})
		table.AddRow(fmt.Sprint(bs), "ks-test", f3(f1))
	}
	table.Notes = append(table.Notes,
		"paper: KS-test slightly beats the threshold above batch size 4, is worse below")
	res.Table = table
	return res, nil
}

// Fig5aResult is the threshold sweep.
type Fig5aResult struct {
	Points []detect.SweepPoint
	Best   detect.SweepPoint
	Table  *Table
}

// Fig5a reproduces the F1-vs-MSP-threshold sweep.
func Fig5a(o Options) (*Fig5aResult, error) {
	o = o.withDefaults()
	r := getAnimalsRig(o, nn.ArchResNet50)
	net := r.net(nn.ArchResNet50)
	perSide := 480
	if o.Quick {
		perSide = 240
	}
	clean, drift, _ := evalSets(r, perSide, imagesim.DefaultSeverity, o.Seed+4)
	cleanScores := mspScores(net, clean)
	driftScores := mspScores(net, drift)

	var thresholds []float64
	for i := 0; i < 6; i++ { // 0.30 .. 0.80
		thresholds = append(thresholds, 0.30+0.10*float64(i))
	}
	for i := 0; i < 10; i++ { // 0.90 .. 0.99
		thresholds = append(thresholds, 0.90+0.01*float64(i))
	}
	points := detect.Sweep(cleanScores, driftScores, thresholds)
	best := detect.BestF1(points)

	table := &Table{
		ID:     "fig5a",
		Title:  "F1 score vs MSP threshold",
		Header: []string{"Threshold", "F1", "Precision", "Recall"},
	}
	for _, p := range points {
		table.AddRow(fmt.Sprintf("%.2f", p.Threshold), f3(p.F1), f3(p.Precision), f3(p.Recall))
	}
	table.Notes = append(table.Notes,
		fmt.Sprintf("peak F1 %.3f at threshold %.2f (paper: ~0.73, flat near 0.9)", best.F1, best.Threshold))
	return &Fig5aResult{Points: points, Best: best, Table: table}, nil
}

// Fig5bResult is the per-class accuracy spread.
type Fig5bResult struct {
	PerClass []float64
	Min, Max float64
	Table    *Table
}

// Fig5b reproduces the per-class accuracy variability of the animals
// model.
func Fig5b(o Options) (*Fig5bResult, error) {
	o = o.withDefaults()
	r := getAnimalsRig(o, nn.ArchResNet50)
	net := r.net(nn.ArchResNet50)
	acc, present := nn.PerClassAccuracy(net, r.valX, r.valY, r.world.Classes())
	res := &Fig5bResult{Min: 1, Max: 0}
	table := &Table{
		ID:     "fig5b",
		Title:  "Average accuracy per animal class",
		Header: []string{"Class", "Accuracy", "Class sigma"},
	}
	for c := 0; c < r.world.Classes(); c++ {
		if !present[c] {
			continue
		}
		res.PerClass = append(res.PerClass, acc[c])
		res.Min = math.Min(res.Min, acc[c])
		res.Max = math.Max(res.Max, acc[c])
		table.AddRow(fmt.Sprintf("species_%03d", c), pct(acc[c]), f3(r.world.ClassSigma(c)))
	}
	table.Notes = append(table.Notes,
		fmt.Sprintf("spread %.1f%%–%.1f%% (paper: 39.2%%–98.2%%)", 100*res.Min, 100*res.Max))
	res.Table = table
	return res, nil
}

// Fig5cPoint is one skew measurement.
type Fig5cPoint struct {
	Alpha         float64
	Accuracy      float64
	DetectionRate float64
}

// Fig5cResult is the class-skew sweep.
type Fig5cResult struct {
	Points []Fig5cPoint
	Table  *Table
}

// Fig5c reproduces the class-skew experiment: as the Zipf α grows, the
// sampled class mix concentrates on fewer (often low-accuracy) classes,
// accuracy degrades and the detection rate rises.
func Fig5c(o Options) (*Fig5cResult, error) {
	o = o.withDefaults()
	r := getAnimalsRig(o, nn.ArchResNet50)
	net := r.net(nn.ArchResNet50)
	n := 800
	if o.Quick {
		n = 300
	}
	res := &Fig5cResult{}
	table := &Table{
		ID:     "fig5c",
		Title:  "Accuracy and detection rate vs class skew (Zipf α)",
		Header: []string{"Alpha", "Accuracy", "Detection rate"},
	}
	for _, alpha := range []float64{0, 0.5, 1, 1.5, 2} {
		rng := tensor.NewRand(o.Seed+5, uint64(alpha*8+1))
		// Rank classes by ascending validation accuracy so high skew
		// concentrates on the hardest classes (locations with a high
		// share of low-accuracy species, as in §5.1).
		acc, _ := nn.PerClassAccuracy(net, r.valX, r.valY, r.world.Classes())
		order := make([]int, r.world.Classes())
		for i := range order {
			order[i] = i
		}
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && acc[order[j]] < acc[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		probs := make([]float64, len(order))
		var z float64
		for rank, c := range order {
			w := 1.0
			if alpha > 0 {
				w = math.Pow(float64(rank+1), -alpha)
			}
			probs[c] = w
			z += w
		}
		for i := range probs {
			probs[i] /= z
		}
		var ra metrics.RunningAccuracy
		detected := 0
		for i := 0; i < n; i++ {
			c := sampleDist(probs, rng.Float64())
			x := r.world.Sample(c, rng)
			logits := net.LogitsOne(x)
			pred, _ := tensor.ArgMax(logits)
			ra.Observe(pred == c)
			if (detect.MSP{}).Score(logits) < 0.9 {
				detected++
			}
		}
		p := Fig5cPoint{Alpha: alpha, Accuracy: ra.Value(), DetectionRate: float64(detected) / float64(n)}
		res.Points = append(res.Points, p)
		table.AddRow(fmt.Sprintf("%.1f", alpha), pct(p.Accuracy), f3(p.DetectionRate))
	}
	table.Notes = append(table.Notes,
		"paper: detection rate 0.35→0.72 and accuracy 78.7%→43.8% from α=0 to α=2")
	res.Table = table
	return res, nil
}

// sampleDist draws an index from a discrete distribution given u∈[0,1).
func sampleDist(probs []float64, u float64) int {
	var acc float64
	for i, p := range probs {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(probs) - 1
}

// RealRainResult is the §5.3 real-weather detection check.
type RealRainResult struct {
	CleanAcc, RainAcc     float64
	F1, Precision, Recall float64
	BestThreshold         float64
	// CalibratedF1 is the best F1 after temperature scaling on held-out
	// clean data — the improvement path the paper suggests ("calibrate
	// it to better handle non-drift scenarios").
	CalibratedF1   float64
	CalibratedTemp float64
	Table          *Table
}

// RealRain reproduces the detection-under-real-weather experiment: the
// RID-analogue rain differs from the synthetic rain the system usually
// sees, accuracy drops, and detection is noisier but still useful.
func RealRain(o Options) (*RealRainResult, error) {
	o = o.withDefaults()
	r := getAnimalsRig(o, nn.ArchResNet50)
	net := r.net(nn.ArchResNet50)
	rng := tensor.NewRand(o.Seed+6, 1)
	perSide := 400
	if o.Quick {
		perSide = 200
	}
	clean := tensor.New(perSide, r.world.Dim())
	rain := tensor.New(perSide, r.world.Dim())
	labels := make([]int, perSide)
	for i := 0; i < perSide; i++ {
		c := i % r.world.Classes()
		labels[i] = c
		copy(clean.Row(i), r.world.Sample(c, rng))
		copy(rain.Row(i), r.world.RealRain(r.world.Sample(c, rng), rng))
	}
	res := &RealRainResult{
		CleanAcc: net.Accuracy(clean, labels),
		RainAcc:  net.Accuracy(rain, labels),
	}
	cleanScores := mspScores(net, clean)
	rainScores := mspScores(net, rain)
	conf := detect.EvalScores(cleanScores, rainScores, 0.95)
	res.F1, res.Precision, res.Recall = conf.F1(), conf.Precision(), conf.Recall()
	var thresholds []float64
	for t := 0.5; t <= 0.999; t += 0.025 {
		thresholds = append(thresholds, t)
	}
	best := detect.BestF1(detect.Sweep(cleanScores, rainScores, thresholds))
	res.BestThreshold = best.Threshold

	// Calibrated variant: fit a softmax temperature on held-out clean
	// validation data, rescore, and sweep again.
	temp, err := nn.CalibrateTemperature(net, r.valX, r.valY)
	if err != nil {
		return nil, err
	}
	res.CalibratedTemp = temp
	calScore := func(x *tensor.Matrix) []float64 {
		logits := net.Logits(x)
		out := make([]float64, logits.Rows)
		for i := range out {
			out[i] = nn.TemperatureScaledMSP(logits.Row(i), temp)
		}
		return out
	}
	calClean := calScore(clean)
	calRain := calScore(rain)
	res.CalibratedF1 = detect.BestF1(detect.Sweep(calClean, calRain, thresholds)).F1

	table := &Table{
		ID:     "realrain",
		Title:  "Detection under real rain (RID-analogue)",
		Header: []string{"Metric", "Value"},
	}
	table.AddRow("clean accuracy", pct(res.CleanAcc))
	table.AddRow("real-rain accuracy", pct(res.RainAcc))
	table.AddRow("F1 @ 0.95", f3(res.F1))
	table.AddRow("precision @ 0.95", f3(res.Precision))
	table.AddRow("recall @ 0.95", f3(res.Recall))
	table.AddRow("best threshold", f3(res.BestThreshold))
	table.AddRow("calibrated temperature", f3(res.CalibratedTemp))
	table.AddRow("best F1 after calibration", f3(res.CalibratedF1))
	table.Notes = append(table.Notes,
		"paper: accuracy 85.2%→76.7%, peak F1 0.67 at threshold 0.95 (precision 0.55, recall 0.88)",
		"paper anticipates better detection if the model is calibrated on clean data — the last two rows test that")
	res.Table = table
	return res, nil
}
