// Command bench is the repository's composed-system benchmark: four
// workloads driven through the real device → transport → httpapi → WAL →
// driftlog → fim/rca → adapt → install path, one set of end-to-end
// metrics, and a traced run that attributes them to layers. README.md in
// this directory explains the workloads, the metrics and the trace files;
// BENCHMARK.json at the repository root declares them for the driver.
//
//	go run ./bench                                    every workload, untraced and traced
//	go run ./bench -workload city_loop -trace 0       one workload, end-to-end metrics only
//	go run ./bench -repeat 2                          repeatability self-check
//
// Each workload × mode runs in a child process of its own, so peak RSS,
// GC state and WAL directories are independent. The last line of
// standard output is the JSON object the driver reads.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Uint64("seed", 1, "input seed (2 is the held-out seed: do not tune against it)")
		seconds  = flag.Float64("seconds", runSeconds, "measuring time on the reference machine: op counts scale by seconds / BENCHMARK.json's run_seconds")
		trace    = flag.Int("trace", 1, "0: untraced run, end-to-end metrics; 1: untraced and traced runs, per-layer metrics")
		out      = flag.String("out", "bench/out", "directory for trace files and scratch WAL directories")
		repeat   = flag.Int("repeat", 0, "run the untraced set this many times and compare the runs against the bounds")
		child    = flag.String("child", "", "internal: run one workload in this process (untraced or traced)")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// The driver appends -workload, -seed, -seconds <run_seconds> and -trace
	// to BENCHMARK.json's command. Work is fixed by op count so that counts
	// and checks repeat exactly; -seconds is the one knob that resizes it.
	cfg := runConfig{workload: *workload, seed: *seed, scale: *seconds / runSeconds, outDir: *out, setups: 3}

	if *child != "" {
		cfg.traced = *child == "traced"
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	var names []string
	for _, w := range workloadDecls {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	ok := true
	if *repeat >= 2 {
		ok = repeatCheck(cfg, names, *repeat)
	} else {
		for _, name := range names {
			cfg.workload = name
			if !runOne(cfg, *trace == 1) {
				ok = false
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// spawn runs one workload × mode in a child process and decodes its
// result. The child is killed if this process dies first.
func spawn(cfg runConfig, mode string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-child", mode, "-workload", cfg.workload,
		"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.scale*runSeconds), "-out", cfg.outDir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s run: %w", cfg.workload, mode, err)
	}
	var res result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s %s run: bad result: %w", cfg.workload, mode, err)
	}
	return &res, nil
}

// driverLine is the object the driver reads from the last line.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload (untraced, and traced when asked), prints its
// metrics and the driver line, and reports whether everything passed.
func runOne(cfg runConfig, traced bool) bool {
	untraced, err := spawn(cfg, "untraced")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	fmt.Printf("== %s seed=%d scale=%.3g: %d ops attempted, %d failed, timed section %.2f s\n",
		cfg.workload, cfg.seed, cfg.scale, untraced.Attempted, untraced.Failed, untraced.TimedWallS)
	printCounts(untraced)
	printMetrics(untraced, endToEndDecls)
	failures := untraced.Failures
	var tr *result
	if traced {
		if tr, err = spawn(cfg, "traced"); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return false
		}
		printMetrics(mergeTraced(untraced, tr), perLayerDecls)
		printLayers(tr)
		failures = append(failures, tr.Failures...)
	} else {
		printMetrics(untraced, perLayerDecls) // what needs no tracing: loop.*, acks, memory
	}
	for _, f := range failures {
		fmt.Println("FAILED:", f)
	}
	line := lineFor(untraced, tr)
	data, _ := json.Marshal(line)
	fmt.Println(string(data))
	return line.Correct
}

// lineFor builds the driver's line: the end-to-end metrics of the
// untraced run, or with a traced run the per-layer metrics of both.
func lineFor(untraced, traced *result) driverLine {
	if traced == nil {
		return driverLine{
			Correct: untraced.Failed == 0, Attempted: untraced.Attempted, Failed: untraced.Failed,
			Metrics: pick(untraced.Metrics, endToEndDecls),
		}
	}
	failed := untraced.Failed + traced.Failed
	return driverLine{
		Correct: failed == 0, Attempted: untraced.Attempted + traced.Attempted, Failed: failed,
		Metrics: pick(mergeTraced(untraced, traced).Metrics, perLayerDecls),
	}
}

// mergeTraced builds the per-layer metric set: span and replay numbers
// from the traced run, the workload-only end-to-end numbers from the
// untraced run, and the overhead of tracing from the two timed sections.
func mergeTraced(untraced, traced *result) *result {
	m := &result{Workload: traced.Workload, Metrics: map[string]float64{}, N: traced.N}
	for k, v := range traced.Metrics {
		m.Metrics[k] = v
	}
	for k, v := range untraced.Metrics {
		if strings.HasPrefix(k, "loop.") || strings.HasPrefix(k, "transport.ack_") || k == "proc.live_heap_mb" || k == "proc.peak_rss_mb" {
			m.Metrics[k] = v
		}
	}
	if untraced.TimedWallS > 0 {
		m.Metrics["proc.trace_overhead_pct"] = 100 * (traced.TimedWallS - untraced.TimedWallS) / untraced.TimedWallS
	}
	return m
}

func pick(metrics map[string]float64, decls []metricDecl) map[string]driverValue {
	out := make(map[string]driverValue, len(decls))
	for _, d := range decls {
		out[d.Name] = driverValue{Value: metrics[d.Name], Unit: d.Unit}
	}
	return out
}

// printMetrics prints the declared metrics the run measured, each
// per-layer one with the metric it should move.
func printMetrics(res *result, decls []metricDecl) {
	for _, d := range decls {
		v, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		note := ""
		if c, ok := res.N[d.Name]; ok {
			note = fmt.Sprintf("  (n=%d)", c)
		}
		if d.Moves != "" {
			note += "  -> " + d.Moves
		}
		fmt.Printf("  %-40s %14.4f %s%s\n", d.Name, v, d.Unit, note)
	}
}

func printCounts(res *result) {
	keys := make([]string, 0, len(res.Counts))
	for k := range res.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Print("  counts:")
	for _, k := range keys {
		fmt.Printf(" %s=%d", k, res.Counts[k])
	}
	fmt.Printf(" digest=%s\n", res.Digest)
}

// printLayers prints the traced run's self-time table: where the timed
// section's wall time went, by span name.
func printLayers(res *result) {
	fmt.Printf("  traced timed section %.2f s; self time by span:\n", res.TimedWallS)
	for _, lt := range res.Layers {
		fmt.Printf("    %-44s n=%-7d total %8.3f s  self %8.3f s  %5.1f%%\n",
			lt.Name, lt.Count, lt.TotalS, lt.SelfS, 100*lt.SelfS/res.TimedWallS)
	}
}

// repeatCheck runs the untraced set n times and compares every later
// run with the first: end-to-end metrics against their bounds, counts and
// digests exactly.
func repeatCheck(cfg runConfig, names []string, n int) bool {
	ok := true
	for _, name := range names {
		cfg.workload = name
		var runs []*result
		for i := 0; i < n; i++ {
			res, err := spawn(cfg, "untraced")
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return false
			}
			if res.Failed > 0 {
				fmt.Printf("%s run %d: %d failed ops: %v\n", name, i+1, res.Failed, res.Failures)
				ok = false
			}
			runs = append(runs, res)
		}
		first := runs[0]
		for i, res := range runs[1:] {
			same := res.Digest == first.Digest && fmt.Sprint(res.Counts) == fmt.Sprint(first.Counts)
			fmt.Printf("== %s run 1 vs run %d: counts and digest equal: %v\n", name, i+2, same)
			ok = ok && same
			for _, d := range endToEndDecls {
				a, b := first.Metrics[d.Name], res.Metrics[d.Name]
				diff := 0.0
				if a != 0 {
					diff = (b - a) / a
				}
				worse := diff
				if d.Better == "higher" {
					worse = -diff
				}
				verdict := "ok"
				if worse > d.Bound {
					verdict, ok = "EXCEEDS BOUND", false
				}
				fmt.Printf("  %-28s %14.4f %14.4f %-5s %+7.2f%%  bound %4.0f%%  %s\n",
					d.Name, a, b, d.Unit, 100*diff, 100*d.Bound, verdict)
			}
		}
	}
	return ok
}
