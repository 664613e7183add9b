// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs its experiment end to end (in Quick
// mode so `go test -bench=.` stays laptop-sized) and reports the
// experiment's headline numbers as custom metrics, so the bench output
// doubles as a compact reproduction report.
//
// Expensive rigs (trained models, end-to-end runs) are memoized inside
// internal/experiments, so later benchmarks reuse earlier work.
package nazar_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/experiments"
	"nazar/internal/imagesim"
	"nazar/internal/metrics"
	"nazar/internal/nn"
	"nazar/internal/pipeline"
	"nazar/internal/rca"
	"nazar/internal/tensor"
)

var benchOpts = experiments.Options{Quick: true, Seed: 42}

// run executes f once per iteration, failing the benchmark on error.
func run[T any](b *testing.B, f func(experiments.Options) (T, error)) T {
	b.Helper()
	var res T
	var err error
	for i := 0; i < b.N; i++ {
		res, err = f(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func BenchmarkTable1DetectorMatrix(b *testing.B) {
	res := run(b, experiments.Table1)
	suitable := 0
	for _, row := range res.Live.Rows {
		if row[3] == "true" {
			suitable++
		}
	}
	b.ReportMetric(float64(len(res.Live.Rows)), "detectors")
	b.ReportMetric(float64(suitable), "separating")
}

func BenchmarkFig2KSBatchSize(b *testing.B) {
	res := run(b, experiments.Fig2)
	b.ReportMetric(res.ThresholdF1, "threshold-F1")
	b.ReportMetric(res.Points[len(res.Points)-1].F1, "ks-F1@64")
}

func BenchmarkTable3FIMExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3Example()
		if err != nil {
			b.Fatal(err)
		}
		if res.TopKey != "weather=snow" {
			b.Fatalf("top cause %q", res.TopKey)
		}
	}
}

func BenchmarkTable4AdaptStrategies(b *testing.B) {
	res := run(b, experiments.Table4)
	b.ReportMetric(100*res.NoAdapt, "noadapt-%")
	b.ReportMetric(100*res.ByCauseTENT, "bycause-tent-%")
	b.ReportMetric(100*res.AdaptAllTENT, "adaptall-tent-%")
}

func BenchmarkCrossCauseAdaptation(b *testing.B) {
	res := run(b, experiments.CrossCause)
	b.ReportMetric(100*res.OwnAcc, "own-%")
	b.ReportMetric(100*res.OtherAcc, "other-%")
	b.ReportMetric(100*res.CleanAcc, "clean-%")
}

func BenchmarkFig5aMSPThresholdSweep(b *testing.B) {
	res := run(b, experiments.Fig5a)
	b.ReportMetric(res.Best.F1, "best-F1")
	b.ReportMetric(res.Best.Threshold, "best-threshold")
}

func BenchmarkFig5bClassAccuracy(b *testing.B) {
	res := run(b, experiments.Fig5b)
	b.ReportMetric(100*res.Min, "min-class-%")
	b.ReportMetric(100*res.Max, "max-class-%")
}

func BenchmarkFig5cClassSkew(b *testing.B) {
	res := run(b, experiments.Fig5c)
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	b.ReportMetric(100*first.Accuracy, "acc-alpha0-%")
	b.ReportMetric(100*last.Accuracy, "acc-alpha2-%")
	b.ReportMetric(last.DetectionRate, "detect-alpha2")
}

func BenchmarkRealRainDetection(b *testing.B) {
	res := run(b, experiments.RealRain)
	b.ReportMetric(res.F1, "F1@0.95")
	b.ReportMetric(100*(res.CleanAcc-res.RainAcc), "acc-drop-%")
}

func BenchmarkTable5RootCauseFMS(b *testing.B) {
	res := run(b, experiments.Table5)
	var fimSum, fullSum float64
	for _, v := range res.FMS[rca.FIMOnly] {
		fimSum += v / 8
	}
	for _, v := range res.FMS[rca.Full] {
		fullSum += v / 8
	}
	b.ReportMetric(fimSum, "fim-avg-FMS")
	b.ReportMetric(fullSum, "full-avg-FMS")
}

func BenchmarkFig6EvolvingDetection(b *testing.B) {
	res := run(b, experiments.Fig6)
	var before, after float64
	n := 0
	for _, row := range res.Same {
		before += row.Before
		after += row.After
		n++
	}
	b.ReportMetric(before/float64(n), "detect-before")
	b.ReportMetric(after/float64(n), "detect-after")
}

func BenchmarkFig7AdaptationByCause(b *testing.B) {
	res := run(b, experiments.Fig7)
	b.ReportMetric(100*fig7Mean(res.Same, func(r experiments.Fig7Row) float64 { return r.ByCause }), "bycause-%")
	b.ReportMetric(100*fig7Mean(res.Same, func(r experiments.Fig7Row) float64 { return r.AdaptAll }), "adaptall-%")
	b.ReportMetric(100*fig7Mean(res.Shifted, func(r experiments.Fig7Row) float64 { return r.ByCause }), "bycause-shifted-%")
}

func BenchmarkFig8CityscapesE2E(b *testing.B) {
	res := run(b, experiments.Fig8)
	arch := nn.ArchResNet50
	b.ReportMetric(100*res.AccDrift[arch][pipeline.Nazar], "nazar-drift-%")
	b.ReportMetric(100*res.AccDrift[arch][pipeline.AdaptAll], "adaptall-drift-%")
	b.ReportMetric(100*res.AccAll[arch][pipeline.Nazar], "nazar-all-%")
}

func BenchmarkFig8cVersionCount(b *testing.B) {
	res := run(b, experiments.Fig8)
	last := len(res.VersionsFull) - 1
	b.ReportMetric(float64(res.VersionsFull[last]), "versions-full")
	b.ReportMetric(float64(res.VersionsFIM[last]), "versions-fim")
}

func BenchmarkFig8dCumulativeTrace(b *testing.B) {
	res := run(b, experiments.Fig8)
	last := len(res.CumAll[pipeline.Nazar]) - 1
	b.ReportMetric(100*res.CumAll[pipeline.Nazar][last], "nazar-cum-%")
	b.ReportMetric(100*res.CumAll[pipeline.AdaptAll][last], "adaptall-cum-%")
}

func BenchmarkFig9AnimalsSeverity(b *testing.B) {
	res := run(b, experiments.Fig9ab)
	b.ReportMetric(100*res.AccDrift[3][pipeline.Nazar], "nazar-S3-drift-%")
	b.ReportMetric(100*res.AccDrift[5][pipeline.Nazar], "nazar-S5-drift-%")
	b.ReportMetric(100*res.AccDrift[5][pipeline.AdaptAll], "adaptall-S5-drift-%")
}

func BenchmarkFig9cClassSkew(b *testing.B) {
	res := run(b, experiments.Fig9c)
	wins := 0
	for _, accs := range res.Acc {
		if accs[pipeline.Nazar] >= accs[pipeline.AdaptAll] {
			wins++
		}
	}
	b.ReportMetric(float64(wins), "nazar-wins")
	b.ReportMetric(float64(len(res.Acc)), "configs")
}

func BenchmarkFig9dRCAScalability(b *testing.B) {
	res := run(b, experiments.Fig9d)
	b.ReportMetric(res.R2, "linear-R2")
	last := res.Points[len(res.Points)-1]
	b.ReportMetric(last.Seconds*1000, "ms-at-max-rows")
}

func BenchmarkRuntimeBreakdown(b *testing.B) {
	res := run(b, experiments.Runtime)
	b.ReportMetric(res.RCATotal.Seconds(), "rca-s")
	b.ReportMetric(res.AdaptTotal.Seconds(), "adapt-s")
}

func BenchmarkAdaptFrequency(b *testing.B) {
	res := run(b, experiments.AdaptFreq)
	b.ReportMetric(float64(len(res.Acc)), "configs")
}

func BenchmarkAblationScores(b *testing.B) {
	res := run(b, experiments.AblationScores)
	b.ReportMetric(res.BestF1["msp"], "msp-F1")
	b.ReportMetric(res.BestF1["energy"], "energy-F1")
}

func BenchmarkAblationRanking(b *testing.B) {
	res := run(b, experiments.AblationRanking)
	b.ReportMetric(res.FMS["risk-ratio (Nazar)"], "riskratio-FMS")
	b.ReportMetric(res.FMS["occurrence"], "occurrence-FMS")
}

func BenchmarkAblationBNOnly(b *testing.B) {
	res := run(b, experiments.AblationBNOnly)
	b.ReportMetric(100*res.BNAcc, "bn-only-%")
	b.ReportMetric(100*res.FullAcc, "full-model-%")
	b.ReportMetric(float64(res.FullBytes)/float64(res.BNBytes), "size-ratio")
}

func BenchmarkAblationPoolCapacity(b *testing.B) {
	res := run(b, experiments.AblationPoolCapacity)
	b.ReportMetric(res.HitRate[1], "hitrate-cap1")
	b.ReportMetric(res.HitRate[6], "hitrate-cap6")
}

// BenchmarkEndToEndWindow measures one full Nazar cloud cycle (ingest →
// RCA → adaptation) on a fresh service, the unit of work §5.8 times.
func BenchmarkEndToEndWindow(b *testing.B) {
	res := run(b, experiments.Runtime)
	perWindow := (res.RCATotal + res.AdaptTotal).Seconds() / 4
	b.ReportMetric(perWindow*1000, "cycle-ms")
	_ = imagesim.DefaultSeverity
}

func BenchmarkQuantizationStudy(b *testing.B) {
	res := run(b, experiments.Quantization)
	b.ReportMetric(100*res.Acc[8], "acc-8bit-%")
	b.ReportMetric(100*res.Acc[4], "acc-4bit-%")
	b.ReportMetric(100*res.WorstClassDrop[4], "worst-class-drop-4bit-%")
}

func BenchmarkHardwareFaultDrift(b *testing.B) {
	res := run(b, experiments.HardwareFault)
	b.ReportMetric(100*res.NoAdaptFaultyAcc, "noadapt-faulty-%")
	b.ReportMetric(100*res.NazarFaultyAcc, "nazar-faulty-%")
	b.ReportMetric(float64(res.DeviceCauses), "device-causes")
}

// benchEntry builds one drift-log report for the ingest benchmarks.
func benchEntry(day time.Time, dev string, i int) (driftlog.Entry, []float64) {
	weather := "clear-day"
	if i%2 == 0 {
		weather = "snow"
	}
	sample := make([]float64, 8)
	for j := range sample {
		sample[j] = float64((i+j)%17) / 17
	}
	return driftlog.Entry{
		Time:  day.Add(time.Duration(i%1440) * time.Minute),
		Drift: i%2 == 0,
		Attrs: map[string]string{
			driftlog.AttrDevice:   dev,
			driftlog.AttrWeather:  weather,
			driftlog.AttrLocation: []string{"A", "B", "C"}[i%3],
		},
	}, sample
}

// BenchmarkIngest measures the ingest path under parallel device load at
// the two batch shapes traffic takes: a single-entry report and a
// 256-row batch (one lock round per shard per batch). The sharded store
// makes concurrent devices mostly lock-disjoint.
func BenchmarkIngest(b *testing.B) {
	for _, rows := range []int{1, 256} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(1, 1))
			svc := cloud.NewService(base, cloud.DefaultConfig())
			day := time.Date(2020, 1, 15, 0, 0, 0, 0, time.UTC)
			ctx := context.Background()
			var devSeq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				dev := fmt.Sprintf("dev_%02d", devSeq.Add(1))
				i := 0
				for pb.Next() {
					entries := make([]driftlog.Entry, rows)
					samples := make([][]float64, rows)
					for k := range entries {
						entries[k], samples[k] = benchEntry(day, dev, i)
						i++
					}
					if err := svc.IngestBatchContext(ctx, entries, samples); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.ReportMetric(float64(rows), "entries/op")
		})
	}
}

// BenchmarkRunWindow measures one analysis/adaptation cycle over a
// 4096-row drift log with the parallel mining/pruning/adaptation path.
func BenchmarkRunWindow(b *testing.B) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(1, 1))
	cfg := cloud.DefaultConfig()
	cfg.MinSamplesPerCause = 16
	cfg.AdaptCfg.Epochs = 1
	cfg.AdaptCfg.MinSteps = 5
	svc := cloud.NewService(base, cfg)
	day := time.Date(2020, 1, 15, 0, 0, 0, 0, time.UTC)
	ctx := context.Background()
	entries := make([]driftlog.Entry, 4096)
	samples := make([][]float64, len(entries))
	for i := range entries {
		entries[i], samples[i] = benchEntry(day, fmt.Sprintf("dev_%02d", i%32), i)
	}
	if err := svc.IngestBatchContext(ctx, entries, samples); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := svc.RunWindowContext(ctx, time.Time{}, time.Time{}, day.AddDate(0, 0, 1))
		if err != nil {
			b.Fatal(err)
		}
		if res.LogRows != 4096 {
			b.Fatalf("scanned %d rows", res.LogRows)
		}
	}
}

func BenchmarkDetectorAUROC(b *testing.B) {
	res := run(b, experiments.DetectorAUROC)
	b.ReportMetric(res.AUROC["threshold(msp)"], "msp-AUROC")
	b.ReportMetric(res.AUROC["odin"], "odin-AUROC")
	b.ReportMetric(res.AUROC["knn"], "knn-AUROC")
}

// fig7Mean is the mean of one strategy column over rows.
func fig7Mean(rows []experiments.Fig7Row, f func(experiments.Fig7Row) float64) float64 {
	vals := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = f(r)
	}
	return metrics.Mean(vals)
}
