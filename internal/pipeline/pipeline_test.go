package pipeline

import (
	"sync"
	"testing"

	"nazar/internal/dataset"
	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/weather"
)

// e2eRig shares one dataset + base model + the three strategy runs across
// tests (each run trains/adapts real models, so build once).
type e2eRig struct {
	ds      *dataset.Dataset
	base    *nn.Network
	results map[Strategy]*Result
}

var (
	rigOnce sync.Once
	rig     *e2eRig
	rigErr  error
)

func getRig(t *testing.T) *e2eRig {
	t.Helper()
	rigOnce.Do(func() {
		ds := dataset.NewCityscapes(dataset.CityscapesConfig{Total: 2400, Devices: 2, Seed: 11})
		base := TrainBase(ds, nn.ArchResNet34, 18, 11)
		rig = &e2eRig{ds: ds, base: base, results: map[Strategy]*Result{}}
		for _, s := range Strategies {
			cfg := DefaultConfig(s, 11)
			cfg.Windows = 4
			res, err := Run(ds, base, cfg)
			if err != nil {
				rigErr = err
				return
			}
			rig.results[s] = res
		}
	})
	if rigErr != nil {
		t.Fatal(rigErr)
	}
	return rig
}

func TestBaseModelCalibrated(t *testing.T) {
	r := getRig(t)
	acc := CleanValAccuracy(r.ds, r.base)
	if acc < 0.70 || acc > 0.97 {
		t.Fatalf("clean val accuracy %v outside band (paper: ~0.84)", acc)
	}
}

func TestRunProducesWindows(t *testing.T) {
	r := getRig(t)
	for s, res := range r.results {
		if len(res.Windows) != 4 {
			t.Fatalf("%s: %d windows", s, len(res.Windows))
		}
		for i, w := range res.Windows {
			if w.NAll == 0 {
				t.Fatalf("%s window %d empty", s, i)
			}
			if w.AccAll < 0 || w.AccAll > 1 {
				t.Fatalf("%s window %d accuracy %v", s, i, w.AccAll)
			}
		}
	}
}

func TestNazarBeatsBaselinesOnDriftedData(t *testing.T) {
	// The headline result (Fig. 8b): Nazar's drifted-data accuracy beats
	// adapt-all and no-adapt.
	r := getRig(t)
	nzr, _ := r.results[Nazar].AvgDriftAccLast(3)
	all, _ := r.results[AdaptAll].AvgDriftAccLast(3)
	non, _ := r.results[NoAdapt].AvgDriftAccLast(3)
	t.Logf("drifted acc: nazar=%.3f adapt-all=%.3f no-adapt=%.3f", nzr, all, non)
	if nzr <= all {
		t.Fatalf("Nazar drifted accuracy %.3f should beat adapt-all %.3f", nzr, all)
	}
	if nzr <= non {
		t.Fatalf("Nazar drifted accuracy %.3f should beat no-adapt %.3f", nzr, non)
	}
}

func TestNazarCompetitiveOnAllData(t *testing.T) {
	// Fig. 8a: Nazar also leads on all-data accuracy.
	r := getRig(t)
	nzr, _ := r.results[Nazar].AvgAccLast(3)
	all, _ := r.results[AdaptAll].AvgAccLast(3)
	non, _ := r.results[NoAdapt].AvgAccLast(3)
	t.Logf("all acc: nazar=%.3f adapt-all=%.3f no-adapt=%.3f", nzr, all, non)
	if nzr+0.02 < all || nzr+0.02 < non {
		t.Fatalf("Nazar all-data accuracy %.3f should not trail baselines (%v, %v)", nzr, all, non)
	}
}

func TestNazarDiscoversWeatherCauses(t *testing.T) {
	r := getRig(t)
	found := false
	for _, w := range r.results[Nazar].Windows {
		for _, c := range w.Causes {
			if c == "{rain}" || c == "{snow}" || c == "{fog}" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no weather cause ever discovered")
	}
}

func TestVersionCountsBounded(t *testing.T) {
	// Fig. 8c: with full RCA the per-device version count stays small
	// (the paper reports a steady 3).
	r := getRig(t)
	for _, w := range r.results[Nazar].Windows {
		if w.VersionCount > 6 {
			t.Fatalf("version count %d exploded", w.VersionCount)
		}
	}
	last := r.results[Nazar].Windows[len(r.results[Nazar].Windows)-1]
	if last.VersionCount == 0 {
		t.Fatal("no versions deployed by final window")
	}
	for _, s := range []Strategy{AdaptAll, NoAdapt} {
		for _, w := range r.results[s].Windows {
			if w.VersionCount != 0 {
				t.Fatalf("%s should not hold versions", s)
			}
		}
	}
}

func TestRuntimeDecomposition(t *testing.T) {
	// §5.8: analysis is much cheaper than adaptation.
	r := getRig(t)
	var rcaTotal, adaptTotal float64
	for _, w := range r.results[Nazar].Windows {
		rcaTotal += w.RCADuration.Seconds()
		adaptTotal += w.AdaptDuration.Seconds()
	}
	if adaptTotal == 0 {
		t.Fatal("no adaptation happened")
	}
	if rcaTotal > adaptTotal {
		t.Fatalf("RCA (%vs) should be cheaper than adaptation (%vs)", rcaTotal, adaptTotal)
	}
}

func TestCumulativeTraceConsistency(t *testing.T) {
	r := getRig(t)
	for s, res := range r.results {
		var seenAll int
		var correctApprox float64
		for i, w := range res.Windows {
			seenAll += w.NAll
			correctApprox += w.AccAll * float64(w.NAll)
			wantCum := correctApprox / float64(seenAll)
			if diff := wantCum - w.CumAccAll; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%s window %d: cumulative %v, recomputed %v", s, i, w.CumAccAll, wantCum)
			}
		}
	}
}

func TestFIMOnlyInflatesVersionCount(t *testing.T) {
	// Fig. 8c's ablation: without set reduction + counterfactual
	// analysis, devices accumulate more BN versions.
	r := getRig(t)
	cfg := DefaultConfig(Nazar, 11)
	cfg.Windows = 4
	cfg.Cloud.RCAMode = rca.FIMOnly
	fimRes, err := Run(r.ds, r.base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fullMax, fimMax := 0, 0
	for i := range fimRes.Windows {
		if fimRes.Windows[i].VersionCount > fimMax {
			fimMax = fimRes.Windows[i].VersionCount
		}
		if r.results[Nazar].Windows[i].VersionCount > fullMax {
			fullMax = r.results[Nazar].Windows[i].VersionCount
		}
	}
	t.Logf("max versions: full=%d fim-only=%d", fullMax, fimMax)
	if fimMax < fullMax {
		t.Fatalf("FIM-only (%d) should hold at least as many versions as full RCA (%d)", fimMax, fullMax)
	}
}

func TestAvgAccHelpers(t *testing.T) {
	res := &Result{Windows: []WindowStats{
		{AccAll: 0.5, AccDrift: 0.4, NDrift: 10},
		{AccAll: 0.7, AccDrift: 0.6, NDrift: 10},
		{AccAll: 0.9, AccDrift: 0, NDrift: 0},
	}}
	mean, _ := res.AvgAccLast(2)
	if mean != 0.8 {
		t.Fatalf("AvgAccLast %v", mean)
	}
	dmean, _ := res.AvgDriftAccLast(3)
	if dmean != 0.5 {
		t.Fatalf("AvgDriftAccLast %v (empty windows must be skipped)", dmean)
	}
	mean, _ = res.AvgAccLast(10)
	if mean < 0.69 || mean > 0.71 {
		t.Fatalf("AvgAccLast over-length %v", mean)
	}
}

func TestAdaptDriftedWorseThanAdaptAll(t *testing.T) {
	// §5.2 "Baselines": adapting only on flagged-drifted samples always
	// performed worse than adapt-all in the paper's experiments (the
	// flagged pool is smaller and polluted by false positives), so it
	// must at least not beat adapt-all decisively.
	r := getRig(t)
	cfg := DefaultConfig(AdaptDrifted, 11)
	cfg.Windows = 4
	res, err := Run(r.ds, r.base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drifted, _ := res.AvgAccLast(3)
	all, _ := r.results[AdaptAll].AvgAccLast(3)
	if drifted > all+0.05 {
		t.Fatalf("adapt-drifted %v should not decisively beat adapt-all %v", drifted, all)
	}
	nazar, _ := r.results[Nazar].AvgAccLast(3)
	if drifted > nazar {
		t.Fatalf("adapt-drifted %v should not beat Nazar %v", drifted, nazar)
	}
}

func TestCustomWeatherSource(t *testing.T) {
	// A pipeline driven by explicit historical records: every day is
	// foggy everywhere, so every inference is drifted.
	r := getRig(t)
	recs := weather.NewRecords()
	for _, loc := range weather.CityscapesLocations {
		for d := 0; d < weather.Days(); d++ {
			if err := recs.Set(loc, weather.Day(d), weather.Fog); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := DefaultConfig(NoAdapt, 11)
	cfg.Windows = 2
	cfg.Weather = recs
	res, err := Run(r.ds, r.base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range res.Windows {
		if w.NDrift != w.NAll {
			t.Fatalf("window %d: %d drifted of %d (all-fog records should drift everything)", i, w.NDrift, w.NAll)
		}
	}
}

func TestCauseRetirementEvictsStaleVersions(t *testing.T) {
	// Drive a snow-only first half then clear skies: the snow version
	// must eventually be retired from device pools.
	r := getRig(t)
	recs := weather.NewRecords()
	for _, loc := range weather.CityscapesLocations {
		for d := 0; d < weather.Days(); d++ {
			cond := weather.ClearDay
			if d < weather.Days()/4 {
				cond = weather.Snow
			}
			if err := recs.Set(loc, weather.Day(d), cond); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := DefaultConfig(Nazar, 11)
	cfg.Windows = 8
	cfg.Weather = recs
	cfg.RetireAfter = 2
	// Windowed (non-cumulative) analysis: once the snow stops, later
	// windows no longer list {snow} and retirement can fire. (Under
	// cumulative analysis historical rows keep causes alive forever,
	// which intentionally blocks retirement.)
	cfg.CumulativeAnalysis = false
	res, err := Run(r.ds, r.base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	grew := false
	for _, w := range res.Windows[:4] {
		if w.VersionCount > 0 {
			grew = true
		}
	}
	if !grew {
		t.Skip("no versions deployed in the snowy half; nothing to retire")
	}
	last := res.Windows[len(res.Windows)-1]
	if last.VersionCount != 0 {
		t.Fatalf("stale versions not retired by final window: %d", last.VersionCount)
	}
}

func TestLongRunStability(t *testing.T) {
	// A 16-window soak: version counts stay bounded and cumulative
	// accuracy does not decay as adaptations stack up.
	if testing.Short() {
		t.Skip("soak test in -short mode")
	}
	r := getRig(t)
	cfg := DefaultConfig(Nazar, 11)
	cfg.Windows = 16
	res, err := Run(r.ds, r.base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 16 {
		t.Fatalf("%d windows", len(res.Windows))
	}
	for i, w := range res.Windows {
		if w.VersionCount > 8 {
			t.Fatalf("window %d: version count %d exploded", i, w.VersionCount)
		}
	}
	first4 := res.Windows[3].CumAccAll
	last := res.Windows[15].CumAccAll
	if last < first4-0.03 {
		t.Fatalf("cumulative accuracy decayed over the soak: %v -> %v", first4, last)
	}
}
