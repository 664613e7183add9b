// Ops-mode example: Nazar out of autopilot (§3.1).
//
// The ML-ops team receives alerts when drift is diagnosed, inspects the
// root causes, and manually decides which to adapt — here over the same
// HTTP API cmd/nazard serves. The flow is:
//
//  1. devices stream foggy + snowy inferences and report drift entries,
//  2. the operator calls /v1/diagnose and reads the alert feed,
//  3. the operator approves only the fog cause via /v1/adapt,
//  4. the resulting BN version deploys and fog accuracy recovers while
//     snow (unapproved) stays degraded.
//
// Run with: go run ./examples/opsmode
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/httpapi"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/registry"
	"nazar/internal/tensor"
	"nazar/internal/weather"
)

func main() {
	// Cloud with an alert sink the "ops team" watches.
	const classes = 12
	world := imagesim.NewWorld(imagesim.DefaultConfig(classes, 77))
	rng := tensor.NewRand(77, 1)
	base := nn.NewClassifier(nn.ArchResNet50, world.Dim(), classes, rng)
	trainX := tensor.New(classes*50, world.Dim())
	trainY := make([]int, trainX.Rows)
	for i := range trainY {
		trainY[i] = i % classes
		copy(trainX.Row(i), world.Sample(trainY[i], rng))
	}
	fmt.Println("training base model...")
	nn.Fit(base, trainX, trainY, nn.TrainConfig{Epochs: 25, BatchSize: 32, Rng: rng})

	svc := cloud.NewService(base, cloud.DefaultConfig())
	alerts := &cloud.AlertLog{}
	svc.SetAlerter(alerts)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: httpapi.NewServer(svc), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	defer srv.Close()
	client := httpapi.NewClient("http://" + ln.Addr().String())
	ctx := context.Background()

	// Devices report a mixed fog + snow period, shipped as one batch.
	day := weather.Day(15)
	entries := make([]driftlog.Entry, 600)
	samples := make([][]float64, len(entries))
	for i := range entries {
		class := i % classes
		x := world.Sample(class, rng)
		cond := "clear-day"
		switch i % 3 {
		case 0:
			x = world.Corrupt(x, imagesim.Fog, imagesim.DefaultSeverity, rng)
			cond = "fog"
		case 1:
			x = world.Corrupt(x, imagesim.Snow, imagesim.DefaultSeverity, rng)
			cond = "snow"
		}
		msp := tensor.Max(tensor.Softmax(base.LogitsOne(x)))
		entries[i] = driftlog.Entry{
			Time:  day.Add(time.Duration(i) * time.Minute),
			Drift: msp < 0.95,
			Attrs: map[string]string{
				driftlog.AttrWeather:  cond,
				driftlog.AttrDevice:   fmt.Sprintf("android_%d", i%6),
				driftlog.AttrLocation: "Quebec",
			},
		}
		samples[i] = x
	}
	if _, err := client.IngestBatchContext(ctx, entries, samples); err != nil {
		log.Fatal(err)
	}

	// Operator triggers diagnosis only — no adaptation yet.
	causes, err := client.DiagnoseContext(ctx, httpapi.AnalyzeRequest{Now: day.AddDate(0, 0, 1)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nalert feed:")
	for _, a := range alerts.Alerts() {
		fmt.Printf("  ALERT %s\n", a.Message)
	}

	// Operator approves only fog.
	var approved []rca.Cause
	for _, c := range causes {
		if c.Matches(map[string]string{driftlog.AttrWeather: "fog"}) {
			approved = append(approved, c)
		}
	}
	fmt.Printf("\noperator approves %d of %d causes (fog only)\n", len(approved), len(causes))
	versions, err := client.AdaptContext(ctx, httpapi.AdaptRequest{Causes: approved, Now: day.AddDate(0, 0, 1)})
	if err != nil {
		log.Fatal(err)
	}

	// Deploy to a device pool and compare fog vs snow after.
	pool := registry.NewPool(base, 0)
	for _, v := range versions {
		if err := pool.Install(v, day.AddDate(0, 0, 1)); err != nil {
			log.Fatal(err)
		}
	}
	eval := func(corr imagesim.Corruption, cond string) float64 {
		correct, total := 0, 0
		evalRng := tensor.NewRand(99, 1)
		for i := 0; i < 240; i++ {
			class := i % classes
			x := world.Corrupt(world.Sample(class, evalRng), corr, imagesim.DefaultSeverity, evalRng)
			net, _ := pool.Select(map[string]string{driftlog.AttrWeather: cond})
			pred, _ := net.PredictOne(x)
			if pred == class {
				correct++
			}
			total++
		}
		return float64(correct) / float64(total)
	}
	fmt.Printf("\nafter the approved adaptation:\n")
	fmt.Printf("  fog accuracy  (approved)    %.1f%%\n", 100*eval(imagesim.Fog, "fog"))
	fmt.Printf("  snow accuracy (not approved) %.1f%%\n", 100*eval(imagesim.Snow, "snow"))
}
