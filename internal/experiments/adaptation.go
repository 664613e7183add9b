package experiments

import (
	"context"
	"fmt"
	"sync"

	"nazar/internal/adapt"
	"nazar/internal/detect"
	"nazar/internal/imagesim"
	"nazar/internal/metrics"
	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// cleanKey marks the clean partition in per-cause maps.
const cleanKey = imagesim.Corruption("clean")

// partitions returns the 17 data sources of §5.5: the 16 corruptions plus
// clean.
func partitions() []imagesim.Corruption {
	return append(append([]imagesim.Corruption{}, imagesim.AllCorruptions...), cleanKey)
}

// adaptedSet is the expensive artifact §5.5/§5.6 experiments share: one
// by-cause model per partition plus one adapt-all model, for a given
// objective.
type adaptedSet struct {
	byCause  map[imagesim.Corruption]*nn.Network
	adaptAll *nn.Network
}

var (
	adaptMemoMu sync.Mutex
	adaptMemo   = map[string]*adaptedSet{}
)

// adaptCfg builds the adaptation config for a method.
func adaptCfg(method adapt.Method, r *animalsRig, seed uint64) adapt.Config {
	cfg := adapt.DefaultConfig()
	cfg.Method = method
	cfg.MinSteps = 20
	cfg.Rng = tensor.NewRand(seed, 0xADA9)
	if method == adapt.MEMO {
		cfg.Augment = r.world.Augment
		cfg.Augmentations = 4
		cfg.Epochs = 1
		cfg.MaxBatchesPerEpoch = 6
		cfg.MinSteps = 0
	}
	return cfg
}

// getAdaptedSet builds (or reuses) the 17 by-cause models and the
// adapt-all model for the method at adaptation severity 3, assuming
// perfect root-cause knowledge (as §5.5 does).
func getAdaptedSet(o Options, r *animalsRig, method adapt.Method) (*adaptedSet, error) {
	key := fmt.Sprintf("%s/%d/%v", method, o.Seed, o.Quick)
	adaptMemoMu.Lock()
	defer adaptMemoMu.Unlock()
	if s, ok := adaptMemo[key]; ok {
		return s, nil
	}
	base := r.net(nn.ArchResNet50)
	rng := tensor.NewRand(o.Seed+100, 0x17)
	set := &adaptedSet{byCause: map[imagesim.Corruption]*nn.Network{}}

	poolRows := r.trainX.Rows
	if o.Quick && poolRows > 360 {
		poolRows = 360
	}
	pool := tensor.New(poolRows, r.world.Dim())

	for _, p := range partitions() {
		for i := 0; i < poolRows; i++ {
			src := r.trainX.Row(i)
			if p == cleanKey {
				copy(pool.Row(i), src)
			} else {
				copy(pool.Row(i), r.world.Corrupt(src, p, imagesim.DefaultSeverity, rng))
			}
		}
		cfg := adaptCfg(method, r, o.Seed+uint64(len(p)))
		m, err := adapt.AdaptContext(context.TODO(), base, pool, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: adapt %s: %w", p, err)
		}
		set.byCause[p] = m
	}

	// Adapt-all: one model on an even mixture of all 17 partitions.
	mixed := tensor.New(poolRows, r.world.Dim())
	parts := partitions()
	for i := 0; i < poolRows; i++ {
		p := parts[i%len(parts)]
		src := r.trainX.Row(i)
		if p == cleanKey {
			copy(mixed.Row(i), src)
		} else {
			copy(mixed.Row(i), r.world.Corrupt(src, p, imagesim.DefaultSeverity, rng))
		}
	}
	m, err := adapt.AdaptContext(context.TODO(), base, mixed, adaptCfg(method, r, o.Seed+999))
	if err != nil {
		return nil, fmt.Errorf("experiments: adapt-all: %w", err)
	}
	set.adaptAll = m
	adaptMemo[key] = set
	return set, nil
}

// testPartition builds the held-out test set of one partition. When
// shiftedSeverity is true, each image's severity is drawn from N(3,1),
// rounded and clipped to [0,5] (setting (b) of §5.5).
func testPartition(r *animalsRig, p imagesim.Corruption, shiftedSeverity bool, seed uint64) (*tensor.Matrix, []int) {
	rng := tensor.NewRand(seed, 0x7E57)
	n := r.valX.Rows
	x := tensor.New(n, r.world.Dim())
	labels := append([]int(nil), r.valY...)
	for i := 0; i < n; i++ {
		src := r.valX.Row(i)
		if p == cleanKey {
			copy(x.Row(i), src)
			continue
		}
		sev := imagesim.DefaultSeverity
		if shiftedSeverity {
			s := int(float64(imagesim.DefaultSeverity) + rng.NormFloat64() + 0.5)
			if s < 0 {
				s = 0
			}
			if s > imagesim.MaxSeverity {
				s = imagesim.MaxSeverity
			}
			sev = s
		}
		copy(x.Row(i), r.world.Corrupt(src, p, sev, rng))
	}
	return x, labels
}

// Table4Result compares adaptation strategies × objectives.
type Table4Result struct {
	NoAdapt                      float64
	ByCauseTENT, ByCauseMEMO     float64
	AdaptAllTENT, AdaptAllMEMO   float64
	ByCausePerDrift, AdaptAllPer map[imagesim.Corruption]float64
	Table                        *Table
}

// Table4 reproduces the by-cause vs adapt-all comparison for TENT and
// MEMO with perfect cause knowledge (§3.4 Table 4).
func Table4(o Options) (*Table4Result, error) {
	o = o.withDefaults()
	r := getAnimalsRig(o, nn.ArchResNet50)
	base := r.net(nn.ArchResNet50)
	res := &Table4Result{
		ByCausePerDrift: map[imagesim.Corruption]float64{},
		AdaptAllPer:     map[imagesim.Corruption]float64{},
	}

	evalAvg := func(model func(p imagesim.Corruption) *nn.Network, record map[imagesim.Corruption]float64) float64 {
		var sum float64
		parts := partitions()
		for _, p := range parts {
			x, labels := testPartition(r, p, false, o.Seed+7)
			acc := model(p).Accuracy(x, labels)
			if record != nil {
				record[p] = acc
			}
			sum += acc
		}
		return sum / float64(len(parts))
	}

	res.NoAdapt = evalAvg(func(imagesim.Corruption) *nn.Network { return base }, nil)

	tent, err := getAdaptedSet(o, r, adapt.TENT)
	if err != nil {
		return nil, err
	}
	res.ByCauseTENT = evalAvg(func(p imagesim.Corruption) *nn.Network { return tent.byCause[p] }, res.ByCausePerDrift)
	res.AdaptAllTENT = evalAvg(func(imagesim.Corruption) *nn.Network { return tent.adaptAll }, res.AdaptAllPer)

	memo, err := getAdaptedSet(o, r, adapt.MEMO)
	if err != nil {
		return nil, err
	}
	res.ByCauseMEMO = evalAvg(func(p imagesim.Corruption) *nn.Network { return memo.byCause[p] }, nil)
	res.AdaptAllMEMO = evalAvg(func(imagesim.Corruption) *nn.Network { return memo.adaptAll }, nil)

	table := &Table{
		ID:     "table4",
		Title:  "Average accuracy: by-cause vs adapt-all (17 partitions)",
		Header: []string{"Method", "Average accuracy", "Paper"},
	}
	table.AddRow("No-adapt", pct(res.NoAdapt), "38.7%")
	table.AddRow("By-cause (TENT)", pct(res.ByCauseTENT), "61.5%")
	table.AddRow("By-cause (MEMO)", pct(res.ByCauseMEMO), "42.3%")
	table.AddRow("Adapt-all (TENT)", pct(res.AdaptAllTENT), "42.4%")
	table.AddRow("Adapt-all (MEMO)", pct(res.AdaptAllMEMO), "30.3%")
	res.Table = table
	return res, nil
}

// CrossCauseResult is the §3.4 cross-cause illustration: a fog-adapted
// model evaluated on its own drift, on other drifts, and on clean data.
type CrossCauseResult struct {
	OwnAcc, OtherAcc, CleanAcc, CleanModelCleanAcc float64
	Table                                          *Table
}

// CrossCause reproduces the "model adapted to one cause is poor
// elsewhere" experiment.
func CrossCause(o Options) (*CrossCauseResult, error) {
	o = o.withDefaults()
	r := getAnimalsRig(o, nn.ArchResNet50)
	tent, err := getAdaptedSet(o, r, adapt.TENT)
	if err != nil {
		return nil, err
	}
	fogModel := tent.byCause[imagesim.Fog]
	cleanModel := tent.byCause[cleanKey]

	res := &CrossCauseResult{}
	x, labels := testPartition(r, imagesim.Fog, false, o.Seed+8)
	res.OwnAcc = fogModel.Accuracy(x, labels)
	var others float64
	count := 0
	for _, p := range imagesim.AllCorruptions {
		if p == imagesim.Fog {
			continue
		}
		x, labels := testPartition(r, p, false, o.Seed+8)
		others += fogModel.Accuracy(x, labels)
		count++
	}
	res.OtherAcc = others / float64(count)
	cx, cl := testPartition(r, cleanKey, false, o.Seed+8)
	res.CleanAcc = fogModel.Accuracy(cx, cl)
	res.CleanModelCleanAcc = cleanModel.Accuracy(cx, cl)

	table := &Table{
		ID:     "crosscause",
		Title:  "Fog-adapted model across distributions",
		Header: []string{"Evaluated on", "Accuracy", "Paper"},
	}
	table.AddRow("own drift (fog)", pct(res.OwnAcc), "66.7%")
	table.AddRow("other drifts", pct(res.OtherAcc), "16.4%")
	table.AddRow("clean data", pct(res.CleanAcc), "26.8%")
	table.AddRow("clean model on clean", pct(res.CleanModelCleanAcc), "74.6%")
	res.Table = table
	return res, nil
}

// Fig7Row is one drift type's accuracy under the three strategies.
type Fig7Row struct {
	Drift    imagesim.Corruption
	NoAdapt  float64
	AdaptAll float64
	ByCause  float64
}

// Fig7Result holds per-drift adaptation accuracy, same and shifted
// severity.
type Fig7Result struct {
	Same    []Fig7Row // 7a: test severity = adaptation severity = 3
	Shifted []Fig7Row // 7b: test severity ~ N(3,1)
	Table   *Table
}

// Fig7 reproduces the per-cause adaptation comparison.
func Fig7(o Options) (*Fig7Result, error) {
	o = o.withDefaults()
	r := getAnimalsRig(o, nn.ArchResNet50)
	base := r.net(nn.ArchResNet50)
	tent, err := getAdaptedSet(o, r, adapt.TENT)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{}
	table := &Table{
		ID:     "fig7",
		Title:  "Accuracy by drift cause: no-adapt / adapt-all / by-cause (TENT)",
		Header: []string{"Severity", "Drift", "No-adapt", "Adapt-all", "By-cause"},
	}
	for _, shifted := range []bool{false, true} {
		label := "same(3)"
		if shifted {
			label = "N(3,1)"
		}
		for _, p := range partitions() {
			x, labels := testPartition(r, p, shifted, o.Seed+9)
			row := Fig7Row{
				Drift:    p,
				NoAdapt:  base.Accuracy(x, labels),
				AdaptAll: tent.adaptAll.Accuracy(x, labels),
				ByCause:  tent.byCause[p].Accuracy(x, labels),
			}
			if shifted {
				res.Shifted = append(res.Shifted, row)
			} else {
				res.Same = append(res.Same, row)
			}
			table.AddRow(label, string(p), pct(row.NoAdapt), pct(row.AdaptAll), pct(row.ByCause))
		}
	}
	res.Table = table
	return res, nil
}

// Average returns the mean of a strategy column over rows.
func Average(rows []Fig7Row, f func(Fig7Row) float64) float64 {
	var vals []float64
	for _, r := range rows {
		vals = append(vals, f(r))
	}
	return metrics.Mean(vals)
}

// Fig6Row is one drift type's detection rate before/after adaptation.
type Fig6Row struct {
	Drift         imagesim.Corruption
	Before, After float64
}

// Fig6Result holds the evolving-detection measurements.
type Fig6Result struct {
	Same    []Fig6Row
	Shifted []Fig6Row
	Table   *Table
}

// Fig6 reproduces the evolving-drift-detection experiment: the detection
// rate of each drift type before adaptation (base model) and after, using
// the matching by-cause adapted model. With matched severity the rate
// drops to the clean level; with shifted severity it stays elevated,
// letting Nazar keep detecting causes it failed to fully adapt to.
func Fig6(o Options) (*Fig6Result, error) {
	o = o.withDefaults()
	r := getAnimalsRig(o, nn.ArchResNet50)
	base := r.net(nn.ArchResNet50)
	tent, err := getAdaptedSet(o, r, adapt.TENT)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{}
	table := &Table{
		ID:     "fig6",
		Title:  "Detection rate before/after by-cause adaptation (MSP < 0.9)",
		Header: []string{"Severity", "Drift", "Before", "After"},
	}
	rate := func(net *nn.Network, x *tensor.Matrix) float64 {
		return detect.DetectionRate(mspScores(net, x), detect.DefaultMSPThreshold)
	}
	for _, shifted := range []bool{false, true} {
		label := "same(3)"
		if shifted {
			label = "N(3,1)"
		}
		for _, p := range partitions() {
			x, _ := testPartition(r, p, shifted, o.Seed+10)
			row := Fig6Row{
				Drift:  p,
				Before: rate(base, x),
				After:  rate(tent.byCause[p], x),
			}
			if shifted {
				res.Shifted = append(res.Shifted, row)
			} else {
				res.Same = append(res.Same, row)
			}
			table.AddRow(label, string(p), f3(row.Before), f3(row.After))
		}
	}
	table.Notes = append(table.Notes,
		"paper: after matched adaptation the rate falls to the clean level; under shifted severity it stays higher")
	res.Table = table
	return res, nil
}
