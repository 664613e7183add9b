// Quickstart: the minimal Nazar loop in one file.
//
// It builds a synthetic image world, trains a classifier, streams foggy
// and clean inferences through a device, lets the cloud detect the drift,
// mine its root cause, adapt a BN version for it, and shows the accuracy
// recovered once the device installs the version.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/detect"
	"nazar/internal/device"
	"nazar/internal/driftlog"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/tensor"
	"nazar/internal/weather"
)

func main() {
	// 1. A world and a trained model (stand-ins for ImageNet + ResNet50).
	const classes = 12
	world := imagesim.NewWorld(imagesim.DefaultConfig(classes, 7))
	rng := tensor.NewRand(7, 1)
	model := nn.NewClassifier(nn.ArchResNet50, world.Dim(), classes, rng)

	trainX := tensor.New(classes*50, world.Dim())
	trainY := make([]int, trainX.Rows)
	for i := range trainY {
		trainY[i] = i % classes
		copy(trainX.Row(i), world.Sample(trainY[i], rng))
	}
	fmt.Println("training the base model...")
	nn.Fit(model, trainX, trainY, nn.TrainConfig{Epochs: 25, BatchSize: 32, Rng: rng})

	// 2. A device with the on-device pieces: version pool, MSP detector,
	// input sampling.
	dev := device.New(device.Config{
		ID:         "android_42",
		Location:   "Helsinki",
		SampleRate: 1.0, // upload everything for this tiny demo
		Detector:   detect.Threshold{Scorer: detect.MSP{}, T: 0.95},
		Rng:        tensor.NewRand(8, 1),
	}, model)

	// 3. The cloud service.
	cfg := cloud.DefaultConfig()
	cfg.MinSamplesPerCause = 16
	svc := cloud.NewService(model, cfg)

	// 4. Stream a foggy week and a clear week.
	day := weather.Day(10)
	evalAccuracy := func(label string, corrupted bool) float64 {
		correct, total := 0, 0
		evalRng := tensor.NewRand(99, 1)
		for i := 0; i < 240; i++ {
			class := i % classes
			x := world.Sample(class, evalRng)
			attrs := map[string]string{driftlog.AttrWeather: "clear-day"}
			if corrupted {
				x = world.Corrupt(x, imagesim.Fog, imagesim.DefaultSeverity, evalRng)
				attrs[driftlog.AttrWeather] = "fog"
			}
			inf, _, _ := dev.Infer(day, x, attrs)
			if inf.Predicted == class {
				correct++
			}
			total++
		}
		acc := float64(correct) / float64(total)
		fmt.Printf("  %-28s %.1f%%\n", label, 100*acc)
		return acc
	}

	fmt.Println("\naccuracy before any drift:")
	evalAccuracy("clean images", false)
	before := evalAccuracy("foggy images", true)

	fmt.Println("\nstreaming a foggy week through the device...")
	ctx := context.Background()
	var entries []driftlog.Entry
	var samples [][]float64
	for i := 0; i < 400; i++ {
		class := i % classes
		cond, x := "clear-day", world.Sample(class, rng)
		if i%2 == 0 {
			cond = "fog"
			x = world.Corrupt(x, imagesim.Fog, imagesim.DefaultSeverity, rng)
		}
		ts := day.Add(time.Duration(i) * time.Minute)
		_, entry, sample := dev.Infer(ts, x, map[string]string{driftlog.AttrWeather: cond})
		entries = append(entries, entry)
		samples = append(samples, sample)
	}
	if err := svc.IngestBatchContext(ctx, entries, samples); err != nil {
		log.Fatal(err)
	}

	// 5. The cloud analyzes the drift log and adapts by cause.
	res, err := svc.RunWindowContext(ctx, day, day.AddDate(0, 0, 1), day.AddDate(0, 0, 1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nroot causes found: ")
	for _, c := range res.Causes {
		fmt.Printf("%s (risk ratio %.2f)  ", c, c.Metrics.RiskRatio)
	}
	fmt.Printf("\nBN versions produced: %d (analysis %v, adaptation %v)\n",
		len(res.Versions), res.RCADuration.Round(time.Millisecond), res.AdaptDuration.Round(time.Millisecond))

	// 6. Deploy to the device and measure the recovery.
	for _, v := range res.Versions {
		if err := dev.Pool.Install(v, day.AddDate(0, 0, 1)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("installed %s (%d bytes — vs %d for the full model)\n",
			v.ID, v.SizeBytes(), model.SizeBytes())
	}

	fmt.Println("\naccuracy after by-cause adaptation:")
	evalAccuracy("clean images", false)
	after := evalAccuracy("foggy images", true)
	fmt.Printf("\nfog accuracy recovered: %.1f%% -> %.1f%%\n", 100*before, 100*after)
}
