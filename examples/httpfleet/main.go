// HTTP fleet example: the distributed deployment mode over a real wire.
//
// It starts the Nazar cloud service as an HTTP server on a loopback
// port (exactly what cmd/nazard does), then drives a small device fleet
// through the resilient device-side transport (what cmd/nazar-device
// does): pull the base model, stream drifted inferences through the
// spooling/retrying transport.Client, trigger analysis, pull BN
// versions, install them, and measure the recovery — all over HTTP:
// ingest batches ship as columnar binary frames
// (application/x-nazar-batch), the control plane speaks JSON.
//
// Run with: go run ./examples/httpfleet
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/detect"
	"nazar/internal/device"
	"nazar/internal/driftlog"
	"nazar/internal/httpapi"
	"nazar/internal/imagesim"
	"nazar/internal/metrics"
	"nazar/internal/nn"
	"nazar/internal/tensor"
	"nazar/internal/transport"
	"nazar/internal/weather"
)

func main() {
	// --- Cloud side (nazard) ---
	const classes = 12
	world := imagesim.NewWorld(imagesim.DefaultConfig(classes, 31))
	rng := tensor.NewRand(31, 1)
	base := nn.NewClassifier(nn.ArchResNet50, world.Dim(), classes, rng)
	trainX := tensor.New(classes*50, world.Dim())
	trainY := make([]int, trainX.Rows)
	for i := range trainY {
		trainY[i] = i % classes
		copy(trainX.Row(i), world.Sample(trainY[i], rng))
	}
	fmt.Println("cloud: training base model...")
	nn.Fit(base, trainX, trainY, nn.TrainConfig{Epochs: 25, BatchSize: 32, Rng: rng})

	ccfg := cloud.DefaultConfig()
	ccfg.MinSamplesPerCause = 16
	svc := cloud.NewService(base, ccfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: httpapi.NewServer(svc), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	defer srv.Close()
	url := "http://" + ln.Addr().String()
	fmt.Printf("cloud: nazard listening on %s\n", url)

	// --- Device side (nazar-device) ---
	// The resilient transport spools entries, batches them over the
	// wire, and retries transient failures; terminal failures surface
	// through OnDrop so lost telemetry is at least visible. Batches ship
	// in the columnar binary framing, the transport's default (it falls
	// back to JSON on its own if the server were older and refused it).
	ctx := context.Background()
	client := transport.NewClient(url,
		transport.WithConfig(transport.Config{
			MaxBatch:      64,
			FlushInterval: 200 * time.Millisecond,
			OnDrop: func(e driftlog.Entry, reason string) {
				log.Printf("devices: entry %v dropped (%s)", e.Time, reason)
			},
		}),
	)
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := client.Close(cctx); err != nil {
			log.Printf("devices: transport close: %v", err)
		}
	}()
	snap, err := client.Base(ctx)
	if err != nil {
		log.Fatal(err)
	}
	devBase := nn.NewClassifier(nn.ArchResNet50, world.Dim(), classes, tensor.NewRand(1, 1))
	if err := snap.ApplyTo(devBase); err != nil {
		log.Fatal(err)
	}
	fmt.Println("devices: pulled base model over HTTP")

	fleet := make([]*device.Device, 4)
	for i := range fleet {
		fleet[i] = device.New(device.Config{
			ID:         fmt.Sprintf("android_fleet_%d", i),
			Location:   "Quebec",
			SampleRate: 0.6,
			Detector:   detect.Threshold{Scorer: detect.MSP{}, T: 0.95},
			Rng:        tensor.NewRand(31+uint64(i), 2),
		}, devBase)
	}

	// Stream two snowy weeks.
	day := weather.Day(20)
	var before metrics.RunningAccuracy
	streamRng := tensor.NewRand(32, 1)
	for i := 0; i < 600; i++ {
		class := i % classes
		x := world.Sample(class, streamRng)
		cond := "clear-day"
		if i%2 == 0 {
			x = world.Corrupt(x, imagesim.Snow, imagesim.DefaultSeverity, streamRng)
			cond = "snow"
		}
		dev := fleet[i%len(fleet)]
		ts := day.Add(time.Duration(i) * time.Minute)
		inf, entry, sample := dev.Infer(ts, x, map[string]string{driftlog.AttrWeather: cond})
		if cond == "snow" {
			before.Observe(inf.Predicted == class)
		}
		if err := client.Report(entry, sample); err != nil {
			log.Fatal(err)
		}
	}
	if err := client.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	st, err := client.Status(ctx)
	if err != nil {
		log.Fatal(err)
	}
	tstats := client.Stats()
	fmt.Printf("devices: streamed %d entries (%d samples uploaded, %d acked, %d retries); snowy accuracy %.1f%%\n",
		st.LogRows, st.Samples, tstats.Acked, tstats.Retries, 100*before.Value())

	// Trigger analysis and pull versions (retried like everything else).
	resp, err := client.Analyze(ctx, httpapi.AnalyzeRequest{Now: day.AddDate(0, 0, 1)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cloud: causes %v, %d versions (rca %dms, adapt %dms)\n",
		resp.Causes, len(resp.VersionIDs), resp.RCAMillis, resp.AdaptMs)

	versions, err := client.Versions(ctx, time.Time{})
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range versions {
		for _, dev := range fleet {
			if err := dev.Pool.Install(v, day.AddDate(0, 0, 1)); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("devices: installed %d versions (pool size %d)\n", len(versions), fleet[0].Pool.Len())

	// Measure the recovery on fresh snowy images.
	var after metrics.RunningAccuracy
	for i := 0; i < 300; i++ {
		class := i % classes
		x := world.Corrupt(world.Sample(class, streamRng), imagesim.Snow, imagesim.DefaultSeverity, streamRng)
		dev := fleet[i%len(fleet)]
		inf, _, _ := dev.Infer(day.AddDate(0, 0, 2), x, map[string]string{driftlog.AttrWeather: "snow"})
		after.Observe(inf.Predicted == class)
	}
	fmt.Printf("snowy accuracy after by-cause adaptation: %.1f%% -> %.1f%%\n",
		100*before.Value(), 100*after.Value())
}
