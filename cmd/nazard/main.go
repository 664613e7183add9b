// Command nazard runs the Nazar cloud service as an HTTP server: it
// trains (or accepts) a base model, ingests drift-log entries from device
// agents, runs root-cause analysis on a schedule or on demand, and serves
// adapted BN versions for devices to pull.
//
// Usage:
//
//	nazard [-addr :8750] [-classes 24] [-train-per-class 50] [-epochs 25]
//	       [-seed 42] [-analyze-every 0] [-wal-dir path]
//
// With -analyze-every > 0 the analysis loop runs periodically; otherwise
// clients trigger it via POST /v1/analyze. With -wal-dir the drift log
// is durable: every ingest batch is fsynced to a write-ahead log before
// it is acknowledged, and a restarted nazard replays the directory to
// resume exactly where the dead process stopped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/httpapi"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/tensor"
)

func main() {
	var (
		addr       = flag.String("addr", ":8750", "listen address")
		classes    = flag.Int("classes", 24, "world classes")
		perClass   = flag.Int("train-per-class", 50, "training examples per class")
		epochs     = flag.Int("epochs", 25, "base-model training epochs")
		seed       = flag.Uint64("seed", 42, "world/model seed (devices must match)")
		every      = flag.Duration("analyze-every", 0, "periodic analysis interval (0 = on demand)")
		retain     = flag.Duration("retention", 0, "compact drift-log rows older than this before each analysis (0 = keep all)")
		walDir     = flag.String("wal-dir", "", "write-ahead-log directory for a durable drift log (replayed on start)")
		walSegMB   = flag.Int("wal-segment-mb", 4, "WAL segment rotation threshold in MiB")
		walCompact = flag.Int("wal-compact-segments", 4, "sealed segments from which each rotation runs background WAL compaction, deleting the segments -retention has expired (0 = never)")

		sketchThreshold = flag.Int("sketch-threshold", 0, "distinct values per attribute before the drift log drops its bitmaps and answers queries on it by row walks (0 = library default)")
	)
	flag.Parse()

	log.Printf("nazard: float kernels on the AVX row body: %v (false: the Go loop)", tensor.UsesAVX())
	log.Printf("nazard: building world (classes=%d seed=%d) and training base model", *classes, *seed)
	world := imagesim.NewWorld(imagesim.DefaultConfig(*classes, *seed))
	rng := tensor.NewRand(*seed, 0xD003)
	base := nn.NewClassifier(nn.ArchResNet50, world.Dim(), *classes, rng)
	n := *perClass * *classes
	x := tensor.New(n, world.Dim())
	y := make([]int, n)
	i := 0
	for c := 0; c < *classes; c++ {
		for k := 0; k < *perClass; k++ {
			y[i] = c
			copy(x.Row(i), world.Sample(c, rng))
			i++
		}
	}
	nn.Fit(base, x, y, nn.TrainConfig{Epochs: *epochs, BatchSize: 32, Rng: rng})
	log.Printf("nazard: base model ready (train accuracy %.1f%%)", 100*base.Accuracy(x, y))

	ccfg := cloud.DefaultConfig()
	ccfg.LogRetention = *retain
	ccfg.Sketch.Threshold = *sketchThreshold
	// One registry carries the whole pipeline: service counters, request
	// metrics and (via GET /metrics) the Prometheus exposition. Runtime
	// profiles are live under /debug/pprof/ on the same listener.
	reg := obs.NewRegistry()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	opts := []cloud.Option{cloud.WithObserver(reg)}
	if *walDir != "" {
		opts = append(opts, cloud.WithWAL(*walDir, driftlog.WALOptions{
			SegmentBytes:    int64(*walSegMB) << 20,
			CompactSegments: *walCompact,
		}))
	}
	svc := cloud.NewService(base, ccfg, opts...)
	if err := svc.WALErr(); err != nil {
		// A service that cannot persist must not serve: every ingest
		// would be refused anyway, so fail loudly at startup.
		log.Fatalf("nazard: %v", err)
	}
	if *walDir != "" {
		rec := svc.WAL().Recovery()
		log.Printf("nazard: wal replay: %d rows from %d segments (torn tail: %v %q, %d bytes dropped)",
			rec.Rows, rec.Segments, rec.TornTail, rec.TornFile, rec.TornBytes)
	}
	var sched *cloud.Scheduler
	if *every > 0 {
		sched = cloud.NewScheduler(svc, *every)
		sched.OnResult = func(res cloud.WindowResult) {
			log.Printf("nazard: analysis over %d rows: %d causes, %d versions (rca %v, adapt %v)",
				res.LogRows, len(res.Causes), len(res.Versions), res.RCADuration, res.AdaptDuration)
		}
		sched.Start()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           httpapi.NewServer(svc, httpapi.WithRegistry(reg), httpapi.WithLogger(logger)),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Graceful shutdown: stop accepting, drain in-flight requests, stop
	// the analysis loop, then close the WAL so the final segment is
	// fsynced and the next start replays a clean (untorn) log.
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Printf("nazard: %v: shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("nazard: shutdown: %v", err)
		}
		if sched != nil {
			sched.Stop()
		}
		if err := svc.Close(); err != nil {
			log.Printf("nazard: wal close: %v", err)
		}
	}()

	fmt.Printf("nazard listening on %s (ingest: %s; metrics at /metrics, profiles at /debug/pprof/)\n",
		*addr, httpapi.ContentTypeBinary)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
}
