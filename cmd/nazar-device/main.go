// Command nazar-device runs a simulated device fleet against a nazard
// server: each device pulls the base model, streams inferences under
// weather-driven drift, reports drift-log entries (with sampled uploads),
// periodically triggers cloud analysis, pulls the resulting BN versions
// and installs them into its local pool.
//
// Usage:
//
//	nazar-device [-server http://localhost:8750] [-devices 4] [-days 28]
//	             [-per-day 8] [-location Hamburg] [-severity 3] [-seed 42]
//	             [-classes 24] [-analyze-every-days 7]
//	             [-quant [-quant-shadow-every N]]
//
// The -classes and -seed flags must match the server so the device draws
// from the same synthetic world.
//
// -quant serves every inference through the int8 fast path (calibrated
// on clean world samples); -quant-shadow-every N also runs the float
// model every Nth inference and reports drift-verdict disagreements.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/detect"
	"nazar/internal/device"
	"nazar/internal/driftlog"
	"nazar/internal/httpapi"
	"nazar/internal/imagesim"
	"nazar/internal/metrics"
	"nazar/internal/nn"
	"nazar/internal/tensor"
	"nazar/internal/weather"
)

func main() {
	var (
		server   = flag.String("server", "http://localhost:8750", "nazard base URL")
		devices  = flag.Int("devices", 4, "simulated devices")
		days     = flag.Int("days", 28, "calendar days to stream")
		perDay   = flag.Int("per-day", 8, "inferences per device per day")
		location = flag.String("location", "Hamburg", "device fleet location")
		severity = flag.Int("severity", imagesim.DefaultSeverity, "weather drift severity")
		seed     = flag.Uint64("seed", 42, "world seed (must match server)")
		classes  = flag.Int("classes", 24, "world classes (must match server)")
		analyze  = flag.Int("analyze-every-days", 7, "trigger cloud analysis every N days (0 = never)")
		useDelta = flag.Bool("delta", false, "pull versions as quantized BN deltas (~4x less bandwidth)")
		quant    = flag.Bool("quant", false, "serve inference through the int8 fast path")
		qShadow  = flag.Int("quant-shadow-every", 0, "with -quant, run the float model every Nth inference and report drift-verdict disagreements (0 = never)")
	)
	flag.Parse()

	ctx := context.Background()
	client := httpapi.NewClient(*server)
	log.Printf("nazar-device: pulling base model from %s", *server)
	snap, err := client.BaseContext(ctx)
	if err != nil {
		log.Fatalf("nazar-device: pull base: %v", err)
	}
	world := imagesim.NewWorld(imagesim.DefaultConfig(*classes, *seed))
	base := nn.NewClassifier(nn.ArchResNet50, world.Dim(), *classes, tensor.NewRand(1, 1))
	if err := snap.ApplyTo(base); err != nil {
		log.Fatalf("nazar-device: base model mismatch (check -classes/-seed): %v", err)
	}

	// Quantized mode calibrates activation scales on clean world
	// samples — the distribution the base model was trained on.
	var cal *tensor.Matrix
	if *quant {
		calRng := tensor.NewRand(*seed, 0xCA1)
		cal = tensor.New(96, world.Dim())
		for i := 0; i < cal.Rows; i++ {
			copy(cal.Row(i), world.Sample(i%*classes, calRng))
		}
	}

	fleet := make([]*device.Device, *devices)
	for i := range fleet {
		fleet[i] = device.New(device.Config{
			ID:          fmt.Sprintf("android_%s_%d", *location, i),
			Location:    *location,
			SampleRate:  0.5,
			Detector:    detect.Threshold{Scorer: detect.MSP{}, T: 0.95},
			Quantized:   *quant,
			Calibration: cal,
			ShadowEvery: *qShadow,
			Rng:         tensor.NewRand(*seed+uint64(i), 0xFEE7),
		}, base)
	}

	var refBN *nn.BNSnapshot
	if *useDelta {
		var err error
		if refBN, err = client.RefBNContext(ctx); err != nil {
			log.Fatalf("nazar-device: pull reference BN: %v", err)
		}
	}

	gen := weather.NewGenerator(*seed)
	rng := tensor.NewRand(*seed, 0xF1EE7)
	var acc, driftAcc metrics.RunningAccuracy
	var quantSat, shadowChecks, shadowDisagree int
	lastPull := time.Time{}

	for d := 0; d < *days && d < weather.Days(); d++ {
		day := weather.Day(d)
		cond, err := gen.ConditionAt(*location, day)
		if err != nil {
			log.Fatalf("nazar-device: %v", err)
		}
		for _, dev := range fleet {
			for k := 0; k < *perDay; k++ {
				class := rng.IntN(*classes)
				x := world.Sample(class, rng)
				drifted := false
				if corr, ok := conditionCorruption(cond); ok {
					x = world.Corrupt(x, corr, *severity, rng)
					drifted = true
				}
				ts := day.Add(time.Duration(k) * time.Hour)
				inf, entry, sample := dev.Infer(ts, x, map[string]string{
					driftlog.AttrWeather: string(cond),
				})
				correct := inf.Predicted == class
				acc.Observe(correct)
				if drifted {
					driftAcc.Observe(correct)
				}
				quantSat += inf.QuantSat
				if inf.ShadowChecked {
					shadowChecks++
					if inf.ShadowDisagree {
						shadowDisagree++
					}
				}
				if err := client.IngestContext(ctx, entry, sample); err != nil {
					log.Fatalf("nazar-device: ingest: %v", err)
				}
			}
		}
		if *analyze > 0 && (d+1)%*analyze == 0 {
			resp, err := client.AnalyzeContext(ctx, httpapi.AnalyzeRequest{Now: day.AddDate(0, 0, 1)})
			if err != nil {
				log.Fatalf("nazar-device: analyze: %v", err)
			}
			log.Printf("day %s: analysis over %d rows -> causes %v",
				day.Format("2006-01-02"), resp.LogRows, resp.Causes)
			var versions []adapt.BNVersion
			if *useDelta {
				versions, err = client.DeltasContext(ctx, lastPull, refBN)
			} else {
				versions, err = client.VersionsContext(ctx, lastPull)
			}
			if err != nil {
				log.Fatalf("nazar-device: pull versions: %v", err)
			}
			lastPull = day
			for _, v := range versions {
				for _, dev := range fleet {
					if err := dev.Pool.Install(v, day); err != nil {
						log.Fatalf("nazar-device: install %s: %v", v.ID, err)
					}
				}
			}
			if len(versions) > 0 {
				log.Printf("day %s: installed %d versions (pool now %d)",
					day.Format("2006-01-02"), len(versions), fleet[0].Pool.Len())
			}
		}
	}
	fmt.Printf("streamed %d days: accuracy all %.1f%% (n=%d), drifted %.1f%% (n=%d)\n",
		*days, 100*acc.Value(), acc.Total, 100*driftAcc.Value(), driftAcc.Total)
	if *quant {
		fmt.Printf("int8 serving: %d requant saturations", quantSat)
		if shadowChecks > 0 {
			fmt.Printf(", drift-verdict disagreement %d/%d (%.2f%%)",
				shadowDisagree, shadowChecks, 100*float64(shadowDisagree)/float64(shadowChecks))
		}
		fmt.Println()
	}
}

// conditionCorruption maps a weather condition to its drift operator.
func conditionCorruption(c weather.Condition) (imagesim.Corruption, bool) {
	switch c {
	case weather.Rain:
		return imagesim.Rain, true
	case weather.Snow:
		return imagesim.Snow, true
	case weather.Fog:
		return imagesim.Fog, true
	default:
		return "", false
	}
}
