// Command nazar-sim runs one end-to-end streaming workload: a device
// fleet under historical-weather drift with the chosen adaptation
// strategy, printing per-window accuracy, detection and deployment
// statistics.
//
// Usage:
//
//	nazar-sim [-dataset cityscapes|animals] [-strategy nazar|adapt-all|no-adapt]
//	          [-arch resnet18|resnet34|resnet50] [-windows 8] [-severity 3]
//	          [-alpha 0] [-total 4000] [-epochs 25] [-seed 42]
//	          [-quant [-quant-shadow-every N]]
//
// -quant serves every on-device inference through the int8 fast path
// (per-channel quantized weights, fused requantization, drift detection
// on quantized logits); -quant-shadow-every N additionally runs the
// float model on every Nth inference and reports drift-verdict
// disagreements after the run.
//
// Chaos mode runs the same window loop over the wire edge (fleet →
// resilient transport → injected-fault HTTP → cloud) on a small
// synthetic fleet and emits one JSON result line per fault rate:
//
//	nazar-sim -chaos [-chaos-rates 0,0.1,0.3] [-chaos-schedule latency=0.1:5ms,...]
//	          [-chaos-devices 3] [-chaos-per-device 40] [-seed 42]
//
// Scenario mode runs the macro-scale fleet simulator on a declarative
// scenario pack (100k–1M lightweight devices; diurnal traffic, churn,
// drift events and an optional staged rollout), printing the per-window
// fleet table and the control plane's decisions:
//
//	nazar-sim -scenario internal/macrosim/testdata/scenarios/smoke.json
//	          [-workers 8] [-rollout candidate=v2,delta=-0.1,steps=1:5:25,guard=0.03,min=100]
//	          [-sim-out summary.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"nazar/internal/dataset"
	"nazar/internal/driftlog"
	"nazar/internal/faultinject"
	"nazar/internal/imagesim"
	"nazar/internal/macrosim"
	"nazar/internal/nn"
	"nazar/internal/obs"
	"nazar/internal/pipeline"
)

func main() {
	var (
		dsName   = flag.String("dataset", "cityscapes", "workload: cityscapes or animals")
		strategy = flag.String("strategy", "nazar", "nazar, adapt-all or no-adapt")
		arch     = flag.String("arch", "resnet50", "model architecture analogue")
		windows  = flag.Int("windows", 8, "adaptation windows over the calendar")
		severity = flag.Int("severity", imagesim.DefaultSeverity, "weather drift severity (0-5)")
		alpha    = flag.Float64("alpha", 0, "animals Zipf class skew")
		total    = flag.Int("total", 4000, "cityscapes total image count")
		epochs   = flag.Int("epochs", 25, "base-model training epochs")
		seed     = flag.Uint64("seed", 42, "random seed")
		quant    = flag.Bool("quant", false, "serve on-device inference through the int8 fast path")
		qShadow  = flag.Int("quant-shadow-every", 0, "with -quant, run the float model every Nth inference and report drift-verdict disagreements (0 = never)")

		chaos         = flag.Bool("chaos", false, "run the fault-injected chaos harness instead of the workload")
		chaosRates    = flag.String("chaos-rates", "0,0.1,0.3", "comma-separated fault rates for -chaos")
		chaosSchedule = flag.String("chaos-schedule", "", "explicit fault schedule for -chaos (overrides -chaos-rates presets)")
		chaosDevices  = flag.Int("chaos-devices", 3, "chaos fleet size")
		chaosPerDev   = flag.Int("chaos-per-device", 40, "chaos inferences per device")

		scenario    = flag.String("scenario", "", "run the macro-scale fleet simulator on this scenario pack (JSON)")
		rolloutSpec = flag.String("rollout", "", "with -scenario, override the pack's staged rollout (candidate=v2,delta=-0.1,steps=1:5:25,guard=0.03,min=100[,ceiling=50][,drift-guard=0.1][,start=1])")
		workers     = flag.Int("workers", 0, "with -scenario, worker-pool width (0 = GOMAXPROCS; never changes results)")
		simOut      = flag.String("sim-out", "", "with -scenario, write the deterministic summary JSON here")
		simSketch   = flag.Int("sim-sketch-threshold", 0, "with -scenario, ingest the pack's sampled entries (sink_every) into an in-process drift log whose attributes drop their bitmaps past this distinct-value count, and report the index after the run (0 = off)")
	)
	flag.Parse()

	if *scenario != "" {
		if err := runScenario(*scenario, *rolloutSpec, *workers, *simOut, *simSketch); err != nil {
			log.Fatalf("nazar-sim: %v", err)
		}
		return
	}

	if *chaos {
		if err := runChaos(*chaosRates, *chaosSchedule, *chaosDevices, *chaosPerDev, *seed); err != nil {
			log.Fatalf("nazar-sim: %v", err)
		}
		return
	}

	var ds *dataset.Dataset
	switch *dsName {
	case "cityscapes":
		ds = dataset.NewCityscapes(dataset.CityscapesConfig{Total: *total, Devices: 2, Seed: *seed})
	case "animals":
		cfg := dataset.DefaultAnimals(*seed)
		cfg.Alpha = *alpha
		cfg.Classes = 24
		cfg.TrainPerClass = 50
		cfg.ValPerClass = 12
		cfg.DevicesPerLocation = 4
		ds = dataset.NewAnimals(cfg)
	default:
		log.Fatalf("nazar-sim: unknown dataset %q", *dsName)
	}

	fmt.Printf("dataset=%s train=%d val=%d stream=%d classes=%d\n",
		ds.Name, ds.Train.Len(), ds.Val.Len(), len(ds.Stream), ds.World.Classes())

	fmt.Printf("training base model (%s, %d epochs)...\n", *arch, *epochs)
	base := pipeline.TrainBase(ds, nn.Arch(*arch), *epochs, *seed)
	fmt.Printf("clean validation accuracy: %.1f%%\n", 100*pipeline.CleanValAccuracy(ds, base))

	cfg := pipeline.DefaultConfig(pipeline.Strategy(*strategy), *seed)
	cfg.Windows = *windows
	cfg.Severity = *severity
	cfg.Quantized = *quant
	cfg.QuantShadowEvery = *qShadow
	var reg *obs.Registry
	if *quant {
		reg = obs.NewRegistry()
		cfg.Observer = reg
	}
	res, err := pipeline.Run(ds, base, cfg)
	if err != nil {
		log.Fatalf("nazar-sim: %v", err)
	}

	fmt.Printf("\nstrategy=%s\n", res.Strategy)
	fmt.Println("win  acc(all)  acc(drift)  n(drift)  detect  versions  causes")
	for i, w := range res.Windows {
		fmt.Printf("%3d  %7.1f%%  %9.1f%%  %8d  %6.2f  %8d  %v\n",
			i, 100*w.AccAll, 100*w.AccDrift, w.NDrift, w.DetectionRate, w.VersionCount, w.Causes)
	}
	mAll, sdAll := res.AvgAccLast(*windows - 1)
	mDrift, sdDrift := res.AvgDriftAccLast(*windows - 1)
	fmt.Printf("\navg accuracy (last %d windows): all %.1f%% ±%.1f, drifted %.1f%% ±%.1f\n",
		*windows-1, 100*mAll, 100*sdAll, 100*mDrift, 100*sdDrift)
	for corr, ra := range res.PerDrift {
		fmt.Printf("  drift %-18s accuracy %.1f%% (n=%d)\n", corr, 100*ra.Value(), ra.Total)
	}
	if reg != nil {
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			log.Fatalf("nazar-sim: %v", err)
		}
		fmt.Println("\nquantized serving:")
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "nazar_quant_") {
				fmt.Println("  " + line)
			}
		}
	}
}

// runScenario drives the macro-scale fleet simulator: load (and
// optionally override) the scenario pack, run it, and print the
// per-window fleet table, the rollout's decision trail and the
// devices/sec throughput. The summary written by -sim-out is
// byte-deterministic for a given pack — diffing two runs is a
// reproducibility check.
func runScenario(path, rolloutSpec string, workers int, outPath string, sketchThreshold int) error {
	sc, err := macrosim.LoadScenario(path)
	if err != nil {
		return err
	}
	if rolloutSpec != "" {
		ro, err := macrosim.ParseRolloutSpec(rolloutSpec)
		if err != nil {
			return err
		}
		sc.Rollout = ro
		if err := sc.Validate(); err != nil {
			return err
		}
	}
	reg := obs.NewRegistry()
	opts := []macrosim.Option{macrosim.WithObserver(reg)}
	if workers > 0 {
		opts = append(opts, macrosim.WithWorkers(workers))
	}
	var store *driftlog.Store
	if sketchThreshold > 0 {
		if sc.SinkEvery <= 0 {
			sc.SinkEvery = 1
			fmt.Println("-sim-sketch-threshold: pack has no sink_every; sampling every delivered entry")
		}
		store = driftlog.NewStoreWithSketch(driftlog.SketchConfig{Threshold: sketchThreshold})
		opts = append(opts, macrosim.WithSink(storeSink{store}))
	}
	eng, err := macrosim.New(sc, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("scenario=%s seed=%d devices=%d windows=%d ticks/window=%d cohorts=%d\n",
		sc.Name, sc.Seed, sc.Devices, sc.Windows, sc.TicksPerWindow, len(sc.Cohorts))
	start := time.Now()
	sum, err := eng.Run(context.Background())
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Println("win   emitted  delivered    late  dropped  offline     acc   drift  rollout")
	for _, w := range sum.Windows {
		ro := "-"
		if w.Rollout != nil {
			ro = fmt.Sprintf("%g%%→%g%% %s", w.Rollout.PercentBefore, w.Rollout.PercentAfter, w.Rollout.Decision)
		}
		fmt.Printf("%3d  %8d  %9d  %6d  %7d  %7d  %5.1f%%  %5.2f%%  %s\n",
			w.Window, w.Emitted, w.Delivered, w.DeliveredLate, w.SpoolDropped,
			w.OfflineDevices, 100*w.Accuracy, 100*w.DriftRate, ro)
	}
	fmt.Printf("\ntotals: emitted=%d delivered=%d late=%d dropped=%d accuracy=%.1f%% drift=%.2f%%\n",
		sum.Totals.Emitted, sum.Totals.Delivered, sum.Totals.DeliveredLate,
		sum.Totals.SpoolDropped, 100*sum.Totals.Accuracy, 100*sum.Totals.DriftRate)
	if sum.Rollout != nil {
		fmt.Printf("rollout %s: state=%s final=%g%% max=%g%% rollback_window=%d decisions=%v\n",
			sum.Rollout.Candidate, sum.Rollout.FinalState, sum.Rollout.FinalPercent,
			sum.Rollout.MaxPercent, sum.Rollout.RollbackWindow, sum.Rollout.Decisions)
	}
	deviceWindows := float64(sc.Devices) * float64(sc.Windows)
	fmt.Printf("simulated %d devices x %d windows in %v (%.0f devices/s)\n",
		sc.Devices, sc.Windows, elapsed.Round(time.Millisecond), deviceWindows/elapsed.Seconds())
	if store != nil {
		st := store.Stats()
		fmt.Printf("drift log: %d rows, %d attrs (%d tiered up, no bitmaps), index %d bitmaps / %d KiB\n",
			st.Rows, st.Attributes, st.SketchAttrs, st.IndexBitmaps, st.IndexWords*8/1024)
		if attrs := store.SketchedAttrs(); len(attrs) > 0 {
			fmt.Printf("tiered attributes: %v\n", attrs)
		}
	}

	if outPath != "" {
		b, err := sum.MarshalStable()
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("summary written to %s\n", outPath)
	}
	return nil
}

// runChaos executes the chaos harness at each requested fault rate and
// writes one JSON result per line (the `make chaos` output). It exits
// non-zero when any run loses an acknowledged entry.
func runChaos(rates, schedule string, devices, perDevice int, seed uint64) error {
	var wire pipeline.Wire
	enc := json.NewEncoder(os.Stdout)
	lost := 0
	for _, part := range strings.Split(rates, ",") {
		rate, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("bad -chaos-rates entry %q: %v", part, err)
		}
		wire.Faults = faultinject.Preset(rate)
		if schedule != "" { // an explicit schedule overrides the preset
			if wire.Faults, err = faultinject.ParseSchedule(schedule); err != nil {
				return err
			}
		}
		res, err := pipeline.RunChaos(pipeline.ChaosConfig{Wire: wire, Devices: devices, PerDevice: perDevice, Seed: seed})
		if err != nil {
			return fmt.Errorf("chaos run at rate %v: %v", rate, err)
		}
		if err := enc.Encode(res); err != nil {
			return err
		}
		lost += res.LostAcked
	}
	if lost > 0 {
		return fmt.Errorf("chaos: %d acknowledged entries lost", lost)
	}
	return nil
}

// storeSink feeds the simulator's sampled entry stream into an
// in-process drift log (the -sim-sketch-threshold path).
type storeSink struct{ store *driftlog.Store }

func (s storeSink) Report(e driftlog.Entry, _ []float64) error {
	s.store.AppendBatch([]driftlog.Entry{e})
	return nil
}
