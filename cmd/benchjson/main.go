// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON document on stdout. It is the bridge between `make
// bench-kernels` and BENCH_kernels.json: every benchmark line becomes a
// record of its metrics, and blocked-vs-reference kernel pairs
// (Foo/blocked/N against Foo/ref/N) are summarized as headline
// speedups.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed `Benchmark...` result line. Repeated runs of
// the same benchmark (-count=N) are folded into one record keeping the
// fastest ns/op — the standard robust estimator on noisy shared
// machines.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Samples    int                `json:"samples"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_kernels.json schema.
type Report struct {
	// Context lines from the bench run (goos/goarch/pkg/cpu).
	Context map[string]string `json:"context,omitempty"`
	// Benchmarks in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
	// Speedups maps "Foo/N" to slow-ns-per-op ÷ fast-ns-per-op for
	// every variant pair found (see variantPairs).
	Speedups map[string]float64 `json:"speedups,omitempty"`
}

func main() {
	rep := Report{Context: map[string]string{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"),
			strings.HasPrefix(line, "cpu:"):
			if k, v, ok := strings.Cut(line, ":"); ok {
				// Later packages overwrite pkg:; keep the first for a
				// stable header and ignore repeats of identical keys.
				if _, seen := rep.Context[k]; !seen {
					rep.Context[k] = strings.TrimSpace(v)
				}
			}
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				merged := false
				for i := range rep.Benchmarks {
					if rep.Benchmarks[i].Name == b.Name {
						if b.NsPerOp < rep.Benchmarks[i].NsPerOp {
							b.Samples = rep.Benchmarks[i].Samples
							rep.Benchmarks[i] = b
						}
						rep.Benchmarks[i].Samples++
						merged = true
						break
					}
				}
				if !merged {
					rep.Benchmarks = append(rep.Benchmarks, b)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	rep.Speedups = speedups(rep.Benchmarks)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: write:", err)
		os.Exit(1)
	}
}

// parseBenchLine parses one result line:
//
//	BenchmarkFoo/sub-8  123  456.7 ns/op  21029.51 MB/s  0 B/op  0 allocs/op
//
// Fields after the iteration count come in (value, unit) pairs.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix so names are stable across machines.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, Samples: 1, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = v
		} else {
			b.Metrics[unit] = v
		}
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, true
}

// variantPairs lists the fast/slow sub-benchmark variant names that
// fold into a headline speedup: blocked-vs-reference kernels,
// bitset-vs-scan analytics, cached-vs-first window re-mining,
// keyed-vs-rebuild candidate sorting, append cost without vs with
// the write-ahead log (where the "speedup" reads as the durability
// overhead factor), binary-vs-json ingest wire codecs and the
// int8-vs-float quantized execution mode.
var variantPairs = []struct{ fast, slow string }{
	{"blocked", "ref"},
	{"bitset", "scan"},
	{"cached", "first"},
	{"keyed", "rebuild"},
	{"nowal", "wal"},
	{"binary", "json"},
	{"int8", "float"},
}

// speedups pairs Foo/<fast>/N with Foo/<slow>/N benchmarks (the size
// suffix is optional: Foo/<fast> pairs with Foo/<slow>) and reports
// slow-time ÷ fast-time per pair, keyed "Foo/N" or "Foo".
func speedups(benchmarks []Benchmark) map[string]float64 {
	type sample struct {
		variant string
		ns      float64
	}
	byKey := map[string][]sample{}
	for _, b := range benchmarks {
		parts := strings.Split(b.Name, "/")
		if len(parts) < 2 || len(parts) > 3 {
			continue
		}
		key := parts[0]
		if len(parts) == 3 {
			key += "/" + parts[2]
		}
		byKey[key] = append(byKey[key], sample{parts[1], b.NsPerOp})
	}
	out := map[string]float64{}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		variants := map[string]float64{}
		for _, s := range byKey[k] {
			variants[s.variant] = s.ns
		}
		for _, p := range variantPairs {
			fast, okF := variants[p.fast]
			slow, okS := variants[p.slow]
			if okF && okS && fast > 0 {
				out[k] = slow / fast
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
