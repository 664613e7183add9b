package main

// The benchmark's declarations: workloads, end-to-end metrics with their
// bounds, per-layer metrics. BENCHMARK.json at the repository root
// repeats them for the driver; bench_test.go fails when the two differ.

// runSeconds is BENCHMARK.json's run_seconds. The driver passes it back
// as -seconds; op counts scale by -seconds over it, so the declared sizes
// measure for about this long on the reference machine (2 cores).
const runSeconds = 15

// workloads is a set of workloadDecls, one bit each in declaration order.
type workloads uint8

const (
	trickle workloads = 1 << iota
	bulk
	highcard
	city
	walOn = trickle | city // the workloads whose service has a WAL
	all   = trickle | bulk | highcard | city
)

// metricDecl declares one metric. The first four fields are
// BENCHMARK.json's; the driver fixes that file's keys, so the other two
// live here only and bench_test.go holds the code to them.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// On is the workloads that measure the metric. The driver wants every
	// metric on every result line, so the others print 0 for it.
	On workloads `json:"-"`
	// Moves names the metric a per-layer metric should move on those
	// workloads; empty for context numbers and the loop.* outcomes.
	Moves string `json:"-"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDecls = []workloadDecl{
	{"durable_trickle", "16-row binary batches with the WAL on: fsync per batch carries the ack, so group commit, WAL encoding and replay show here only"},
	{"bulk_analyze", "256-row binary batches, WAL off, exact bitset tier: decode + store append + index carry ingest, PairCounts/fim/rca carry 200k-row windows; writes interleave with reads"},
	{"highcard_analyze", "same View API on the sketch tier: app_version and firmware tier up mid-ingest, so a change that helps one tier and costs the other shows"},
	{"city_loop", "the paper's Fig. 8 loop over the wire with shipped defaults (JSON, WAL, float inference): real detection, RCA, TENT and install; adaptation dominates"},
}

// Every workload reports every end-to-end metric (the driver's contract),
// so the list holds what all four can measure. The ISSUE's workload-only
// metrics are reported as loop.* per-layer metrics; see README.md.
var endToEndDecls = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, On: all},
	{Name: "ingest_entries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: all},
	{Name: "ingest_cpu_us_per_entry", Unit: "us", Better: "lower", Bound: 0.25, On: all},
	{Name: "window_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: all},
	{Name: "window_to_install_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: all},
}

var perLayerDecls = []metricDecl{
	// End-to-end numbers only some workloads have, from the untraced run.
	{Name: "loop.replay_rows_per_s", Unit: "1/s", Better: "higher", On: walOn},
	{Name: "loop.window_delta_p50_ms", Unit: "ms", Better: "lower", On: bulk},
	{Name: "loop.window_p80_ms", Unit: "ms", Better: "lower", On: all},
	{Name: "loop.window_to_install_p90_ms", Unit: "ms", Better: "lower", On: all},
	{Name: "loop.items_per_s", Unit: "1/s", Better: "higher", On: city},
	{Name: "loop.drift_acc", Unit: "fraction", Better: "higher", On: city},
	{Name: "loop.drift_acc_early", Unit: "fraction", Better: "higher", On: city},
	{Name: "loop.drift_acc_base", Unit: "fraction", Better: "higher", On: city},

	// First Report of a batch → the transport's OnAck for it.
	{Name: "transport.ack_p50_ms", Unit: "ms", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "transport.ack_p90_ms", Unit: "ms", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "transport.ack_p99_ms", Unit: "ms", Better: "lower", On: all, Moves: "ingest_entries_per_s"},

	{Name: "device.infer_us", Unit: "us", Better: "lower", On: city, Moves: "ingest_entries_per_s"},
	{Name: "nn.logits_one_us", Unit: "us", Better: "lower", On: city, Moves: "ingest_entries_per_s"},
	{Name: "detect.msp_us", Unit: "us", Better: "lower", On: city, Moves: "ingest_entries_per_s"},

	{Name: "transport.report_ns", Unit: "ns", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "transport.flush_self_us", Unit: "us", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "transport.retries", Unit: "count", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "transport.spool_dropped", Unit: "count", Better: "lower", On: all, Moves: "ingest_entries_per_s"},

	// Both codecs are replayed on every workload's batches; the binary one
	// is live on the generated-log workloads, JSON on city_loop.
	{Name: "wire.encode_us_per_batch", Unit: "us", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "wire.decode_us_per_batch", Unit: "us", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "wire.bytes_per_row", Unit: "B", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "httpapi.json_encode_us_per_batch", Unit: "us", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "httpapi.json_decode_us_per_batch", Unit: "us", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "httpapi.json_bytes_per_row", Unit: "B", Better: "lower", On: all, Moves: "ingest_entries_per_s"},

	{Name: "httpapi.roundtrip_p50_us", Unit: "us", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "httpapi.roundtrip_p99_us", Unit: "us", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "httpapi.handler_us", Unit: "us", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "httpapi.net_us", Unit: "us", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "httpapi.self_us", Unit: "us", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "httpapi.status_4xx", Unit: "count", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "httpapi.status_5xx", Unit: "count", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "httpapi.versions_ms", Unit: "ms", Better: "lower", On: all, Moves: "window_to_install_p50_ms"},
	{Name: "httpapi.versions_bytes", Unit: "B", Better: "lower", On: all, Moves: "window_to_install_p50_ms"},

	{Name: "cloud.ingest_us_per_batch", Unit: "us", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "cloud.ingest_self_us_per_batch", Unit: "us", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "cloud.diagnose_ms", Unit: "ms", Better: "lower", On: all, Moves: "window_p50_ms"},
	{Name: "cloud.adapt_causes_ms", Unit: "ms", Better: "lower", On: all, Moves: "window_p50_ms"},
	{Name: "cloud.run_window_self_ms", Unit: "ms", Better: "lower", On: all, Moves: "window_p50_ms"},

	{Name: "driftlog.wal_append_us_per_batch", Unit: "us", Better: "lower", On: walOn, Moves: "ingest_entries_per_s"},
	{Name: "driftlog.wal_bytes_per_row", Unit: "B", Better: "lower", On: walOn, Moves: "ingest_entries_per_s"},
	{Name: "driftlog.wal_appends", Unit: "count", Better: "lower", On: walOn, Moves: "ingest_entries_per_s"},
	{Name: "driftlog.wal_rotations", Unit: "count", Better: "lower", On: walOn, Moves: "ingest_entries_per_s"},
	{Name: "driftlog.wal_compactions", Unit: "count", Better: "lower", On: walOn, Moves: "ingest_entries_per_s"},
	{Name: "driftlog.wal_replay_us_per_row", Unit: "us", Better: "lower", On: walOn, Moves: "loop.replay_rows_per_s"},
	{Name: "driftlog.wal_replay_allocs_per_row", Unit: "count", Better: "lower", On: walOn, Moves: "loop.replay_rows_per_s"},
	{Name: "driftlog.wal_replay_segments", Unit: "count", Better: "lower", On: walOn, Moves: "loop.replay_rows_per_s"},
	{Name: "driftlog.store_append_us_per_batch", Unit: "us", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "driftlog.store_append_allocs_per_row", Unit: "count", Better: "lower", On: all, Moves: "ingest_entries_per_s"},
	{Name: "driftlog.index_words", Unit: "count", Better: "lower", On: all, Moves: "proc.peak_rss_mb"},
	{Name: "driftlog.sketch_bytes", Unit: "B", Better: "lower", On: all, Moves: "proc.peak_rss_mb"},
	{Name: "driftlog.sketch_attrs", Unit: "count", Better: "lower", On: all, Moves: "proc.peak_rss_mb"},
	{Name: "driftlog.window_us", Unit: "us", Better: "lower", On: all, Moves: "window_p50_ms"},
	{Name: "driftlog.attr_value_counts_ms", Unit: "ms", Better: "lower", On: all, Moves: "window_p50_ms"},
	{Name: "driftlog.pair_counts_ms", Unit: "ms", Better: "lower", On: all, Moves: "window_p50_ms"},
	{Name: "driftlog.count_us", Unit: "us", Better: "lower", On: all, Moves: "window_p50_ms"},
	{Name: "driftlog.sample_ids_us", Unit: "us", Better: "lower", On: all, Moves: "window_p50_ms"},

	{Name: "fim.mine_ms", Unit: "ms", Better: "lower", On: all, Moves: "window_p50_ms"},
	{Name: "fim.mine_cached_ms", Unit: "ms", Better: "lower", On: all, Moves: "loop.window_delta_p50_ms"},
	{Name: "fim.results", Unit: "count", Better: "lower", On: all, Moves: "window_p50_ms"},
	{Name: "fim.support_cache_hit_ratio", Unit: "fraction", Better: "higher", On: all, Moves: "loop.window_delta_p50_ms"},
	{Name: "fim.minecache_refusals", Unit: "count", Better: "lower", On: all, Moves: "loop.window_delta_p50_ms"},
	{Name: "rca.set_reduction_us", Unit: "us", Better: "lower", On: all, Moves: "window_p50_ms"},
	{Name: "rca.counterfactual_ms", Unit: "ms", Better: "lower", On: all, Moves: "window_p50_ms"},
	{Name: "rca.causes", Unit: "count", Better: "lower", On: all, Moves: "window_p50_ms"},

	// Adaptation is switched off on the generated-log workloads: there the
	// by-cause replay times the sample gather and the refusal.
	{Name: "adapt.by_cause_ms", Unit: "ms", Better: "lower", On: all, Moves: "window_p50_ms"},
	{Name: "adapt.clean_ms", Unit: "ms", Better: "lower", On: city, Moves: "window_p50_ms"},
	{Name: "adapt.samples_per_cause", Unit: "count", Better: "higher", On: all, Moves: "window_p50_ms"},
	{Name: "adapt.versions", Unit: "count", Better: "lower", On: all, Moves: "window_p50_ms"},
	{Name: "registry.install_us", Unit: "us", Better: "lower", On: city, Moves: "window_to_install_p50_ms"},
	{Name: "registry.select_ns", Unit: "ns", Better: "lower", On: all, Moves: "ingest_entries_per_s"},

	// VmHWM of the untraced child at exit, and the most the run retained
	// after a collection. On city_loop both follow the by-cause versions a
	// pass installs (1 to 22, by seed), so neither carries a bound.
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower", On: all},
	{Name: "proc.live_heap_mb", Unit: "MB", Better: "lower", On: all, Moves: "proc.peak_rss_mb"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower", On: all},
	{Name: "proc.allocs_per_entry", Unit: "count", Better: "lower", On: all},
	{Name: "proc.trace_overhead_pct", Unit: "%", Better: "lower", On: all},
	{Name: "proc.span_coverage_pct", Unit: "%", Better: "higher", On: all},
}
