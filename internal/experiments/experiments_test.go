package experiments

import (
	"slices"
	"strings"
	"testing"

	"nazar/internal/detect"
	"nazar/internal/imagesim"
	"nazar/internal/metrics"
	"nazar/internal/nn"
	"nazar/internal/pipeline"
	"nazar/internal/rca"
)

// quick are the options every test shares; memoized rigs/runs make the
// suite far cheaper than the sum of its parts.
var quick = Options{Quick: true, Seed: 42}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Header: []string{"A", "B"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "a note")
	s := tb.String()
	for _, want := range []string{"demo", "A", "1", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestRegistryRunsAndRejects(t *testing.T) {
	if _, err := Run("nope", quick); err == nil {
		t.Fatal("unknown id must error")
	}
	if len(IDs()) < 20 {
		t.Fatalf("registry too small: %v", IDs())
	}
	tables, err := Run("table3", quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("table3 produced %d tables", len(tables))
	}
}

func TestTable1Shapes(t *testing.T) {
	res, err := Table1(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matrix.Rows) != 4 {
		t.Fatal("matrix must have 4 requirement rows")
	}
	// The header is the paper's column order, one column per
	// detect.Table1 row.
	want := []string{"Requirement", "Threshold", "KS-test", "OE", "Odin", "MD", "SSL", "CSI", "GOdin"}
	if !slices.Equal(res.Matrix.Header, want) {
		t.Fatalf("header %q, want %q", res.Matrix.Header, want)
	}
	for i, m := range detect.Table1() {
		if res.Matrix.Header[i+1] != m.Name {
			t.Fatalf("column %d is %q, detect.Table1 row %d is %q", i+1, res.Matrix.Header[i+1], i, m.Name)
		}
	}
	// Every live detector must separate clean from drifted.
	for _, row := range res.Live.Rows {
		if row[3] != "true" {
			t.Fatalf("detector %s does not separate: %v", row[0], row)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := Fig2(quick)
	if err != nil {
		t.Fatal(err)
	}
	small, large := res.Points[0].F1, res.Points[len(res.Points)-1].F1
	if large <= small {
		t.Fatalf("KS F1 should grow with batch size: %v -> %v", small, large)
	}
	// Paper shape: at large batches the KS test competes with or beats
	// the threshold; at tiny batches it is worse.
	if small >= res.ThresholdF1 {
		t.Fatalf("KS at batch 2 (%v) should trail the threshold (%v)", small, res.ThresholdF1)
	}
	if large < res.ThresholdF1-0.1 {
		t.Fatalf("KS at batch 64 (%v) should be competitive with threshold (%v)", large, res.ThresholdF1)
	}
}

func TestTable3Walkthrough(t *testing.T) {
	res, err := Table3Example()
	if err != nil {
		t.Fatal(err)
	}
	if res.TopKey != "weather=snow" {
		t.Fatalf("top cause %q", res.TopKey)
	}
	if res.NumFull >= res.NumFIM {
		t.Fatalf("pruning failed: fim=%d full=%d", res.NumFIM, res.NumFull)
	}
	if res.NumFull != 1 {
		t.Fatalf("paper walkthrough ends with exactly {snow}; got %d causes", res.NumFull)
	}
}

func TestTable4Ordering(t *testing.T) {
	res, err := Table4(quick)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline orderings.
	if !(res.ByCauseTENT > res.AdaptAllTENT) {
		t.Fatalf("by-cause TENT %v must beat adapt-all TENT %v", res.ByCauseTENT, res.AdaptAllTENT)
	}
	if !(res.ByCauseTENT > res.NoAdapt+0.10) {
		t.Fatalf("by-cause TENT %v must clearly beat no-adapt %v", res.ByCauseTENT, res.NoAdapt)
	}
	if !(res.ByCauseMEMO > res.AdaptAllMEMO) {
		t.Fatalf("by-cause MEMO %v must beat adapt-all MEMO %v", res.ByCauseMEMO, res.AdaptAllMEMO)
	}
	if !(res.ByCauseTENT > res.ByCauseMEMO) {
		t.Fatalf("TENT %v must beat MEMO %v (why the paper defaults to TENT)", res.ByCauseTENT, res.ByCauseMEMO)
	}
}

func TestCrossCauseShape(t *testing.T) {
	res, err := CrossCause(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.OwnAcc > res.OtherAcc+0.15) {
		t.Fatalf("fog model on own drift %v must far exceed other drifts %v", res.OwnAcc, res.OtherAcc)
	}
	if !(res.CleanModelCleanAcc > res.CleanAcc) {
		t.Fatalf("clean model on clean %v must beat fog model on clean %v", res.CleanModelCleanAcc, res.CleanAcc)
	}
}

func TestFig5aShape(t *testing.T) {
	res, err := Fig5a(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.F1 < 0.55 || res.Best.F1 > 0.95 {
		t.Fatalf("best F1 %v out of plausible band (paper ~0.73)", res.Best.F1)
	}
	// Rise-then-fall: the first point must not be the best, and F1 must
	// decline after the peak toward threshold 1.0... the last point is
	// below or equal to the best.
	if res.Points[0].F1 >= res.Best.F1 {
		t.Fatal("F1 should rise from low thresholds")
	}
}

func TestFig5bSpread(t *testing.T) {
	res, err := Fig5b(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Max-res.Min < 0.25 {
		t.Fatalf("per-class spread %v–%v too narrow (paper: 39.2–98.2%%)", res.Min, res.Max)
	}
}

func TestFig5cMonotonicity(t *testing.T) {
	res, err := Fig5c(quick)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if !(last.Accuracy < first.Accuracy-0.05) {
		t.Fatalf("accuracy should fall with skew: %v -> %v", first.Accuracy, last.Accuracy)
	}
	if !(last.DetectionRate > first.DetectionRate+0.03) {
		t.Fatalf("detection rate should rise with skew: %v -> %v", first.DetectionRate, last.DetectionRate)
	}
}

func TestRealRainShape(t *testing.T) {
	res, err := RealRain(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.RainAcc < res.CleanAcc-0.05) {
		t.Fatalf("real rain should cost accuracy: clean %v rain %v", res.CleanAcc, res.RainAcc)
	}
	if res.F1 < 0.4 {
		t.Fatalf("rain detection F1 %v too low to be useful (paper 0.67)", res.F1)
	}
	// Real drift is noisier than the synthetic benchmark.
	synth, err := Fig5a(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.F1 > synth.Best.F1+0.05 {
		t.Fatalf("real rain F1 %v should not beat synthetic best %v", res.F1, synth.Best.F1)
	}
}

func TestTable5Shape(t *testing.T) {
	res, err := Table5(quick)
	if err != nil {
		t.Fatal(err)
	}
	var fullSum float64
	for _, scn := range table5Scenarios() {
		fim := res.FMS[rca.FIMOnly][scn.Name]
		full := res.FMS[rca.Full][scn.Name]
		if full+1e-9 < fim {
			t.Fatalf("%s: full %v < fim %v", scn.Name, full, fim)
		}
		fullSum += full
	}
	if avg := fullSum / 8; avg < 0.9 {
		t.Fatalf("full-pipeline average FMS %v, want >= 0.9 (paper ~0.98)", avg)
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Matched adaptation lowers the detection rate on average.
	var before, after float64
	for _, row := range res.Same {
		if row.Drift == cleanKey {
			continue
		}
		before += row.Before
		after += row.After
	}
	if !(after < before) {
		t.Fatalf("matched adaptation should reduce detection: before %v after %v", before, after)
	}
	// Shifted severity keeps the rate higher than matched severity.
	var afterShifted float64
	for _, row := range res.Shifted {
		if row.Drift == cleanKey {
			continue
		}
		afterShifted += row.After
	}
	if !(afterShifted > after) {
		t.Fatalf("shifted severity should stay more detectable: %v vs %v", afterShifted, after)
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range map[string][]Fig7Row{"same": res.Same, "shifted": res.Shifted} {
		by := average(rows, func(r Fig7Row) float64 { return r.ByCause })
		all := average(rows, func(r Fig7Row) float64 { return r.AdaptAll })
		non := average(rows, func(r Fig7Row) float64 { return r.NoAdapt })
		if !(by > all && by > non) {
			t.Fatalf("%s: by-cause %v must beat adapt-all %v and no-adapt %v", name, by, all, non)
		}
	}
	// Robustness under shifted severity: by-cause still leads but with
	// a reduced margin (setting (b) is harder).
	bySame := average(res.Same, func(r Fig7Row) float64 { return r.ByCause })
	byShifted := average(res.Shifted, func(r Fig7Row) float64 { return r.ByCause })
	if byShifted > bySame+0.02 {
		t.Fatalf("shifted severity should not be easier: same %v shifted %v", bySame, byShifted)
	}
}

func TestFig8Shapes(t *testing.T) {
	res, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	for arch := range res.AccDrift {
		nzr := res.AccDrift[arch][pipeline.Nazar]
		all := res.AccDrift[arch][pipeline.AdaptAll]
		non := res.AccDrift[arch][pipeline.NoAdapt]
		if !(nzr > all && nzr > non) {
			t.Fatalf("%s: Nazar drifted %v must beat adapt-all %v and no-adapt %v", arch, nzr, all, non)
		}
		if res.AccAll[arch][pipeline.Nazar]+0.02 < res.AccAll[arch][pipeline.AdaptAll] {
			t.Fatalf("%s: Nazar all-data accuracy trails adapt-all", arch)
		}
	}
	// 8c: FIM-only stores at least as many versions as full RCA.
	for i := range res.VersionsFull {
		if res.VersionsFIM[i] < res.VersionsFull[i] {
			t.Fatalf("window %d: fim %d < full %d", i, res.VersionsFIM[i], res.VersionsFull[i])
		}
	}
	// 8d: Nazar's cumulative all-data accuracy ends at/above adapt-all's.
	last := len(res.CumAll[pipeline.Nazar]) - 1
	if res.CumAll[pipeline.Nazar][last]+0.02 < res.CumAll[pipeline.AdaptAll][last] {
		t.Fatal("cumulative trace: Nazar should not end below adapt-all")
	}
}

func TestFig9abShapes(t *testing.T) {
	res, err := Fig9ab(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, sev := range []int{3, 5} {
		if !(res.AccDrift[sev][pipeline.Nazar] > res.AccDrift[sev][pipeline.AdaptAll]) {
			t.Fatalf("S%d: Nazar drifted %v must beat adapt-all %v", sev,
				res.AccDrift[sev][pipeline.Nazar], res.AccDrift[sev][pipeline.AdaptAll])
		}
	}
	// Higher severity degrades everyone.
	for _, s := range pipeline.Strategies {
		if res.AccDrift[5][s] > res.AccDrift[3][s]+0.03 {
			t.Fatalf("%s: S5 drifted accuracy should not beat S3", s)
		}
	}
}

func TestFig9cExists(t *testing.T) {
	res, err := Fig9c(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Acc) != 3 {
		t.Fatalf("expected 3 configurations, got %d", len(res.Acc))
	}
	// Under skew Nazar must win in at least one configuration (the
	// paper: with fewer windows or higher severity).
	wins := 0
	for _, accs := range res.Acc {
		if accs[pipeline.Nazar] >= accs[pipeline.AdaptAll] {
			wins++
		}
	}
	if wins == 0 {
		t.Fatal("Nazar never matches adapt-all under skew")
	}
}

func TestFig9dLinear(t *testing.T) {
	res, err := Fig9d(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkR2 < 0.99 {
		t.Fatalf("RCA work not linear in rows: R² = %v over %+v", res.WorkR2, res.Points)
	}
	// Work must grow with log size.
	if res.Points[len(res.Points)-1].Work <= res.Points[0].Work {
		t.Fatal("work did not grow with rows")
	}
}

func TestRuntimeDecomposition(t *testing.T) {
	res, err := Runtime(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.AdaptTotal == 0 {
		t.Fatal("no adaptation time measured")
	}
	if res.RCATotal > res.AdaptTotal {
		t.Fatalf("RCA %v should be cheaper than adaptation %v (paper: 46 s of 50 min)",
			res.RCATotal, res.AdaptTotal)
	}
}

func TestAdaptFreqConsistent(t *testing.T) {
	res, err := AdaptFreq(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Acc) != 2 {
		t.Fatalf("expected 2 window configs, got %d", len(res.Acc))
	}
	// Results stay consistent: both configs land in a sane band.
	for w, accs := range res.Acc {
		if accs[pipeline.Nazar] < 0.5 {
			t.Fatalf("windows=%d accuracy %v implausibly low", w, accs[pipeline.Nazar])
		}
	}
}

func TestAblationScoresNearIdentical(t *testing.T) {
	res, err := AblationScores(quick)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 1.0, 0.0
	for _, f1 := range res.BestF1 {
		if f1 < lo {
			lo = f1
		}
		if f1 > hi {
			hi = f1
		}
	}
	if hi-lo > 0.25 {
		t.Fatalf("scores should perform similarly (paper: almost identical); spread %v–%v", lo, hi)
	}
	if res.BestF1["msp"] < hi-0.15 {
		t.Fatalf("MSP %v should be competitive with the best (%v)", res.BestF1["msp"], hi)
	}
}

func TestAblationRanking(t *testing.T) {
	res, err := AblationRanking(quick)
	if err != nil {
		t.Fatal(err)
	}
	nazar := res.FMS["risk-ratio (Nazar)"]
	if nazar < 0.8 {
		t.Fatalf("risk-ratio ranking FMS %v too low", nazar)
	}
}

func TestAblationBNOnly(t *testing.T) {
	res, err := AblationBNOnly(quick)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.FullBytes) / float64(res.BNBytes)
	if ratio < 10 {
		t.Fatalf("artifact ratio %v, want >= 10 (paper: 217x)", ratio)
	}
	if res.BNAcc < res.FullAcc-0.15 {
		t.Fatalf("BN-only %v should be close to full-model %v", res.BNAcc, res.FullAcc)
	}
}

func TestAblationPoolCapacity(t *testing.T) {
	res, err := AblationPoolCapacity(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRate[0] != 1 {
		t.Fatalf("unlimited pool hit rate %v, want 1", res.HitRate[0])
	}
	if !(res.HitRate[1] < res.HitRate[3] && res.HitRate[3] <= res.HitRate[6]) {
		t.Fatalf("hit rate should grow with capacity: %v", res.HitRate)
	}
}

func TestRigCaching(t *testing.T) {
	a := getAnimalsRig(quick, nn.ArchResNet50)
	b := getAnimalsRig(quick, nn.ArchResNet50)
	if a != b {
		t.Fatal("rig should be memoized")
	}
	if a.world.Classes() == 0 || a.net(nn.ArchResNet50) == nil {
		t.Fatal("rig incomplete")
	}
	_ = imagesim.DefaultSeverity
}

func TestQuantizationShape(t *testing.T) {
	res, err := Quantization(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acc[8] < res.Acc[64]-0.05 {
		t.Fatalf("8-bit quantization should be nearly lossless: %v vs %v", res.Acc[8], res.Acc[64])
	}
	if res.Acc[2] > res.Acc[4] {
		t.Fatal("2-bit should be worse than 4-bit")
	}
	// The §2 claim: per-class damage exceeds the average damage.
	avgDrop := res.Acc[64] - res.Acc[4]
	if res.WorstClassDrop[4] < avgDrop {
		t.Fatalf("worst-class drop %v should exceed average drop %v", res.WorstClassDrop[4], avgDrop)
	}
	if !(res.Size[4] < res.Size[8] && res.Size[8] < res.Size[64]) {
		t.Fatal("sizes not shrinking")
	}
	// The real int8 execution mode: near-lossless, and smaller than the
	// 8-bit storage estimate because BN folds into the requantization
	// epilogue instead of being stored.
	if res.Int8Acc < res.Acc[64]-0.05 {
		t.Fatalf("fused int8 should be nearly lossless: %v vs %v", res.Int8Acc, res.Acc[64])
	}
	if res.Int8Size > res.Size[8] {
		t.Fatalf("fused int8 size %d exceeds the 8-bit estimate %d", res.Int8Size, res.Size[8])
	}
	if res.Int8Speedup <= 0 {
		t.Fatal("int8 serving speedup not measured")
	}
	if res.Int8WorstDrop < 0 || res.Int8WorstDrop > 1 {
		t.Fatalf("int8 worst-class drop %v out of range", res.Int8WorstDrop)
	}
}

func TestHardwareFaultShape(t *testing.T) {
	res, err := HardwareFault(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultyDevices == 0 {
		t.Fatal("no faulty devices assigned")
	}
	if res.NoAdaptFaultyAcc >= res.NoAdaptHealthyAcc-0.05 {
		t.Fatalf("defect should cost accuracy: faulty %v vs healthy %v",
			res.NoAdaptFaultyAcc, res.NoAdaptHealthyAcc)
	}
	if res.NazarFaultyAcc <= res.NoAdaptFaultyAcc {
		t.Fatalf("Nazar should recover faulty devices: %v vs %v",
			res.NazarFaultyAcc, res.NoAdaptFaultyAcc)
	}
	if res.NazarHealthyAcc < res.NoAdaptHealthyAcc-0.03 {
		t.Fatalf("Nazar must not harm healthy devices: %v vs %v",
			res.NazarHealthyAcc, res.NoAdaptHealthyAcc)
	}
	if res.DeviceCauses == 0 {
		t.Fatal("RCA never grouped by device ID")
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Header: []string{"A", "B"}}
	tb.AddRow("1", "va|ue")
	tb.Notes = append(tb.Notes, "a note")
	md := tb.Markdown()
	for _, want := range []string{"### x: demo", "| A | B |", "| --- | --- |", `va\|ue`, "> a note"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestAblationThresholdShape(t *testing.T) {
	res, err := AblationThreshold(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DriftAcc) != 4 {
		t.Fatalf("expected 4 operating points, got %d", len(res.DriftAcc))
	}
	// The calibrated operating point must not be dominated by the
	// lowest threshold (starved recall).
	if res.DriftAcc[0.95] < res.DriftAcc[0.80]-0.03 {
		t.Fatalf("0.95 (%v) should not trail 0.80 (%v)", res.DriftAcc[0.95], res.DriftAcc[0.80])
	}
}

func TestDetectorAUROCShape(t *testing.T) {
	res, err := DetectorAUROC(quick)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range res.AUROC {
		if a < 0.55 {
			t.Fatalf("%s AUROC %v barely better than chance", name, a)
		}
	}
	// The free threshold must be competitive with the expensive methods
	// (within 0.15 of the best) — the Table 1 argument.
	best := 0.0
	for _, a := range res.AUROC {
		if a > best {
			best = a
		}
	}
	if res.AUROC["threshold(msp)"] < best-0.15 {
		t.Fatalf("MSP AUROC %v too far below best %v", res.AUROC["threshold(msp)"], best)
	}
}

// average returns the mean of a strategy column over rows.
func average(rows []Fig7Row, f func(Fig7Row) float64) float64 {
	var vals []float64
	for _, r := range rows {
		vals = append(vals, f(r))
	}
	return metrics.Mean(vals)
}
