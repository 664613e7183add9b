package cloud

import (
	"strconv"
	"sync/atomic"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/obs"
	"nazar/internal/tensor"
)

// Metrics is the cloud service's instrument set, registered on one
// obs.Registry (GET /metrics exposes it). All write paths are single
// atomic ops; gauge functions are pulled at scrape time so the stores
// never push.
//
// Families (all prefixed nazar_):
//
//	nazar_ingest_entries_total        drift-log entries ingested
//	nazar_ingest_batches_total        ingest batches (a single-entry report is a one-row batch)
//	nazar_ingest_samples_total        uploaded input samples stored
//	nazar_ingest_sample_bytes_total   uploaded sample payload bytes
//	nazar_window_runs_total           RunWindow cycles started
//	nazar_window_errors_total         cycles that failed (incl. cancelled)
//	nazar_window_causes_total         root causes diagnosed
//	nazar_window_versions_total{verdict="accepted"|"rejected"}
//	nazar_window_stage_seconds{stage="rca"|"adapt"|"total"}  histograms
//	nazar_adapt_run_seconds{kind="by_cause"|"clean"}
//	                                  one adaptation run (histogram); runs
//	                                  overlap, so stage="adapt" above is
//	                                  their longest chain, not their sum
//	nazar_window_log_rows             rows scanned per window (histogram)
//	nazar_analysis_cache_total{result="hit"|"delta"|"miss"}
//	                                  window-analysis cache outcomes
//	nazar_driftlog_index_bitmaps      live (attribute,value)+drift bitmaps
//	nazar_driftlog_index_words        64-bit words held by the index
//	nazar_fim_cache_hits              memoized support-count hits
//	nazar_fim_cache_misses            memoized support-count misses
//	nazar_fim_cache_evictions         support-memo LRU evictions
//	nazar_fim_minecache_entries       retained cross-window count entries
//	nazar_fim_pairs_counted_total     pairs the drift log materialized for
//	                                  apriori's level 2 (work, not time: at
//	                                  a fixed log it repeats to the unit)
//	nazar_fim_candidates_total{level="1"|"2"|"3+"}
//	                                  itemsets scored per apriori level;
//	                                  level 3+ is what survived the prune
//	                                  step and was counted
//	nazar_sketch_attrs                attributes on the sketch tier
//	nazar_sketch_buckets              live sub-sketch buckets (incl. rest)
//	nazar_sketch_bytes                sketch-tier resident bytes
//	nazar_sketch_evicted              sub-sketch buckets folded into rest
//	nazar_sketch_feed_rows_total      rows handed to the batch sketch feed
//	nazar_sketch_feed_keys_total      distinct keys it added for them (keys
//	                                  per row below the attribute's sketch
//	                                  items per row = work the grouping saved)
//	nazar_driftlog_rows               current drift-log rows
//	nazar_driftlog_shard_rows{shard=} per-shard occupancy
//	nazar_driftlog_attributes         distinct attribute names
//	nazar_driftlog_compacted_rows     rows removed by retention
//	nazar_driftlog_unsorted_shards    shards with out-of-order timestamps
//	nazar_driftlog_age_seconds{bound="oldest"|"newest"}
//	nazar_samples_retained            samples currently held
//	nazar_samples_added               samples ever stored
//	nazar_samples_evicted             samples trimmed by the capacity cap
//	nazar_samples_shard_rows{shard=}  per-shard occupancy
//	nazar_versions_deployed           versions produced over the lifetime
//	nazar_pool_parallel_calls         ParallelFor fan-outs
//	nazar_pool_sequential_calls       inline (non-fanned) ParallelFor runs
//	nazar_pool_goroutines_total       worker goroutines ever spawned
//	nazar_pool_active_workers         worker goroutines running now
type Metrics struct {
	registry *obs.Registry

	ingestEntries *obs.Counter
	ingestBatches *obs.Counter
	ingestSamples *obs.Counter
	ingestBytes   *obs.Counter

	windowRuns       *obs.Counter
	windowErrors     *obs.Counter
	causesFound      *obs.Counter
	versionsAccepted *obs.Counter
	versionsRejected *obs.Counter

	analysisCacheHits   *obs.Counter
	analysisCacheDeltas *obs.Counter
	analysisCacheMisses *obs.Counter

	stageRCA   *obs.Histogram
	stageAdapt *obs.Histogram
	stageTotal *obs.Histogram
	runByCause *obs.Histogram
	runClean   *obs.Histogram
	logRows    *obs.Histogram
}

// logRowBuckets covers one entry to fleet-scale windows.
var logRowBuckets = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// NewMetrics registers the cloud instrument set on reg. Registering the
// same set twice on one registry panics (duplicate names) — one service
// per registry.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		registry: reg,

		ingestEntries: reg.Counter("nazar_ingest_entries_total", "Drift-log entries ingested."),
		ingestBatches: reg.Counter("nazar_ingest_batches_total", "Ingest batches (a single-entry report is a one-row batch)."),
		ingestSamples: reg.Counter("nazar_ingest_samples_total", "Uploaded input samples stored."),
		ingestBytes:   reg.Counter("nazar_ingest_sample_bytes_total", "Uploaded sample payload bytes."),

		windowRuns:   reg.Counter("nazar_window_runs_total", "Analysis/adaptation cycles started."),
		windowErrors: reg.Counter("nazar_window_errors_total", "Cycles that failed or were cancelled."),
		causesFound:  reg.Counter("nazar_window_causes_total", "Root causes diagnosed."),
		versionsAccepted: reg.Counter("nazar_window_versions_total",
			"Adaptation outcomes per diagnosed cause (accepted = version produced).", obs.L("verdict", "accepted")),
		versionsRejected: reg.Counter("nazar_window_versions_total",
			"Adaptation outcomes per diagnosed cause (accepted = version produced).", obs.L("verdict", "rejected")),

		analysisCacheHits: reg.Counter("nazar_analysis_cache_total",
			"Window-analysis cache outcomes (hit = causes reused, delta = only new rows mined).", obs.L("result", "hit")),
		analysisCacheDeltas: reg.Counter("nazar_analysis_cache_total",
			"Window-analysis cache outcomes (hit = causes reused, delta = only new rows mined).", obs.L("result", "delta")),
		analysisCacheMisses: reg.Counter("nazar_analysis_cache_total",
			"Window-analysis cache outcomes (hit = causes reused, delta = only new rows mined).", obs.L("result", "miss")),

		stageRCA:   reg.Histogram("nazar_window_stage_seconds", "Per-stage window latency.", obs.DefBuckets, obs.L("stage", "rca")),
		stageAdapt: reg.Histogram("nazar_window_stage_seconds", "Per-stage window latency.", obs.DefBuckets, obs.L("stage", "adapt")),
		stageTotal: reg.Histogram("nazar_window_stage_seconds", "Per-stage window latency.", obs.DefBuckets, obs.L("stage", "total")),
		runByCause: reg.Histogram("nazar_adapt_run_seconds", "Wall time of one adaptation run (runs of a window overlap).", obs.DefBuckets, obs.L("kind", "by_cause")),
		runClean:   reg.Histogram("nazar_adapt_run_seconds", "Wall time of one adaptation run (runs of a window overlap).", obs.DefBuckets, obs.L("kind", "clean")),
		logRows:    reg.Histogram("nazar_window_log_rows", "Drift-log rows scanned per window.", logRowBuckets),
	}
}

// observeWindow records one completed cycle.
func (m *Metrics) observeWindow(res WindowResult, total time.Duration) {
	m.causesFound.Add(uint64(len(res.Causes)))
	accepted := 0
	for _, v := range res.Versions {
		if !v.IsClean() {
			accepted++
		}
	}
	m.versionsAccepted.Add(uint64(accepted))
	if rejected := len(res.Causes) - accepted; rejected > 0 {
		m.versionsRejected.Add(uint64(rejected))
	}
	m.stageRCA.ObserveDuration(res.RCADuration)
	m.stageAdapt.ObserveDuration(res.AdaptDuration)
	m.stageTotal.ObserveDuration(total)
	m.logRows.Observe(float64(res.LogRows))
}

// observeRuns records the wall time of every adaptation run of one
// fan-out.
func (m *Metrics) observeRuns(runs adapt.Runs) {
	for _, d := range runs.ByCauseTimes {
		m.runByCause.ObserveDuration(d)
	}
	if runs.Clean != nil {
		m.runClean.ObserveDuration(runs.CleanTime)
	}
}

// observeStores registers scrape-time gauges over the service's stores
// and the shared worker pool. Called once from NewService.
func (m *Metrics) observeStores(s *Service) {
	reg := m.registry
	log, samples := s.log, s.samples
	// One Stats snapshot per scrape, taken before any gauge is pulled and
	// shared by every drift-log gauge below.
	var logStats atomic.Pointer[driftlog.Stats]
	reg.OnScrape(func() {
		st := log.Stats()
		logStats.Store(&st)
	})
	reg.GaugeFunc("nazar_driftlog_rows", "Current drift-log rows.",
		func() float64 { return float64(log.Len()) })
	reg.GaugeFunc("nazar_driftlog_unsorted_shards", "Shards whose row timestamps are out of order (interleaved writers): their windows are built by row scan, not binary search.",
		func() float64 { return float64(logStats.Load().UnsortedShards) })
	reg.GaugeFunc("nazar_driftlog_attributes", "Distinct attribute names seen.",
		func() float64 { return float64(logStats.Load().Attributes) })
	reg.GaugeFunc("nazar_driftlog_compacted_rows", "Rows removed by retention compaction.",
		func() float64 { return float64(logStats.Load().CompactedRows) })
	reg.GaugeFunc("nazar_driftlog_age_seconds", "Age of the oldest retained row.",
		func() float64 { return rowAge(logStats.Load().OldestTime, s.clock) }, obs.L("bound", "oldest"))
	reg.GaugeFunc("nazar_driftlog_age_seconds", "Age of the newest retained row.",
		func() float64 { return rowAge(logStats.Load().NewestTime, s.clock) }, obs.L("bound", "newest"))
	reg.GaugeFunc("nazar_driftlog_index_bitmaps", "Live (attribute,value) and drift bitmaps in the bitset index.",
		func() float64 { return float64(logStats.Load().IndexBitmaps) })
	reg.GaugeFunc("nazar_driftlog_index_words", "64-bit words held by the bitset index.",
		func() float64 { return float64(logStats.Load().IndexWords) })

	reg.GaugeFunc("nazar_fim_cache_hits", "Memoized support-count hits (process-wide).",
		func() float64 { return float64(fim.ReadSupportCacheStats().Hits) })
	reg.GaugeFunc("nazar_fim_cache_misses", "Memoized support-count misses (process-wide).",
		func() float64 { return float64(fim.ReadSupportCacheStats().Misses) })
	reg.GaugeFunc("nazar_fim_cache_evictions", "Support-memo LRU evictions (process-wide).",
		func() float64 { return float64(fim.ReadSupportCacheStats().Evictions) })
	reg.GaugeFunc("nazar_fim_pairs_counted_total", "Pairs the drift log materialized for apriori's level 2 (process-wide).",
		func() float64 { return float64(fim.ReadMineStats().PairsCounted) })
	for i, level := range [...]string{"1", "2", "3+"} {
		reg.GaugeFunc("nazar_fim_candidates_total", "Itemsets scored per apriori level; 3+ counts the joined candidates the prune step let through (process-wide).",
			func() float64 { return float64(fim.ReadMineStats().Candidates[i]) }, obs.L("level", level))
	}
	reg.GaugeFunc("nazar_fim_minecache_entries", "Count entries retained by the cross-window mining cache.",
		func() float64 {
			s.acMu.Lock()
			defer s.acMu.Unlock()
			return float64(s.acache.mine.Size())
		})

	reg.GaugeFunc("nazar_sketch_attrs", "Attributes answered by the approximate sketch tier.",
		func() float64 { return float64(logStats.Load().SketchAttrs) })
	reg.GaugeFunc("nazar_sketch_buckets", "Live sub-sketch buckets across all sketch rings.",
		func() float64 { return float64(logStats.Load().SketchBuckets) })
	reg.GaugeFunc("nazar_sketch_bytes", "Resident bytes held by the sketch tier.",
		func() float64 { return float64(logStats.Load().SketchBytes) })
	reg.GaugeFunc("nazar_sketch_evicted", "Sub-sketch buckets folded into the rest bucket.",
		func() float64 { return float64(logStats.Load().SketchEvicted) })
	reg.GaugeFunc("nazar_sketch_feed_rows_total", "Rows handed to the batch sketch feed (appends and replays).",
		func() float64 { return float64(logStats.Load().SketchFeedRows) })
	reg.GaugeFunc("nazar_sketch_feed_keys_total", "Distinct keys the batch sketch feed added to a Count-Min bucket.",
		func() float64 { return float64(logStats.Load().SketchFeedKeys) })

	reg.GaugeFunc("nazar_samples_retained", "Samples currently held.",
		func() float64 { return float64(samples.Stats().Retained) })
	reg.GaugeFunc("nazar_samples_added", "Samples ever stored.",
		func() float64 { return float64(samples.Stats().Added) })
	reg.GaugeFunc("nazar_samples_evicted", "Samples trimmed by the capacity cap.",
		func() float64 { return float64(samples.Stats().Evicted) })
	reg.GaugeFunc("nazar_versions_deployed", "BN versions produced over the service lifetime.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.deployed))
		})

	for shard := range log.Stats().ShardRows {
		shard := shard
		reg.GaugeFunc("nazar_driftlog_shard_rows", "Per-shard drift-log occupancy.",
			func() float64 { return float64(logStats.Load().ShardRows[shard]) },
			obs.L("shard", strconv.Itoa(shard)))
	}
	for shard := range samples.Stats().ShardRows {
		shard := shard
		reg.GaugeFunc("nazar_samples_shard_rows", "Per-shard sample-store occupancy.",
			func() float64 { return float64(samples.Stats().ShardRows[shard]) },
			obs.L("shard", strconv.Itoa(shard)))
	}

	reg.GaugeFunc("nazar_pool_parallel_calls", "ParallelFor invocations that fanned out.",
		func() float64 { return float64(tensor.ReadPoolStats().ParallelCalls) })
	reg.GaugeFunc("nazar_pool_sequential_calls", "ParallelFor invocations run inline.",
		func() float64 { return float64(tensor.ReadPoolStats().SequentialCalls) })
	reg.GaugeFunc("nazar_pool_goroutines_total", "Worker goroutines ever spawned.",
		func() float64 { return float64(tensor.ReadPoolStats().Goroutines) })
	reg.GaugeFunc("nazar_pool_active_workers", "Worker goroutines running now.",
		func() float64 { return float64(tensor.ReadPoolStats().Active) })

	reg.GaugeFunc("nazar_workspace_gets", "Scratch matrices handed out by the workspace arena.",
		func() float64 { return float64(tensor.ReadWorkspaceStats().Gets) })
	reg.GaugeFunc("nazar_workspace_hits", "Workspace gets satisfied by a recycled matrix.",
		func() float64 { return float64(tensor.ReadWorkspaceStats().Hits) })
	reg.GaugeFunc("nazar_workspace_puts", "Scratch matrices returned to the workspace arena.",
		func() float64 { return float64(tensor.ReadWorkspaceStats().Puts) })
	reg.GaugeFunc("nazar_workspace_discards", "Returned matrices dropped for off-class capacity.",
		func() float64 { return float64(tensor.ReadWorkspaceStats().Discards) })
}

// rowAge converts a row timestamp into an age (0 when the store is
// empty).
func rowAge(t time.Time, clock func() time.Time) float64 {
	if t.IsZero() {
		return 0
	}
	return clock().UTC().Sub(t).Seconds()
}
