package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"

	"nazar/internal/metrics"
)

// result assembles a run's metrics from the harness's measurements.
func (r *run) result() (*result, error) {
	h := r.h
	m := map[string]float64{}
	n := map[string]int{}

	acks := h.ackMs
	var primary, install, delta []float64
	for _, w := range h.windows {
		if w.kind == "delta" {
			delta = append(delta, w.analyzeMs)
			continue
		}
		primary = append(primary, w.analyzeMs)
		install = append(install, w.totalMs)
	}
	var cpu float64
	rows := 0
	for _, s := range h.sections {
		cpu += float64(s.cpu.Microseconds())
		rows += s.rows
	}
	m["setup_s"] = percentile(r.setupS, 50)
	m["ingest_entries_per_s"] = ingestRate(h.sections)
	m["ingest_cpu_us_per_entry"] = cpu / float64(max(1, rows))
	m["window_p50_ms"] = percentile(primary, 50)
	m["window_to_install_p50_ms"] = percentile(install, 50)
	n["transport.ack_p50_ms"], n["transport.ack_p90_ms"], n["transport.ack_p99_ms"] = len(acks), len(acks), len(acks)
	n["window_p50_ms"], n["window_to_install_p50_ms"] = len(primary), len(install)
	n["loop.window_p80_ms"], n["loop.window_to_install_p90_ms"] = len(primary), len(install)

	m["transport.ack_p50_ms"] = percentile(acks, 50)
	m["transport.ack_p90_ms"] = percentile(acks, 90)
	m["transport.ack_p99_ms"] = percentile(acks, 99)
	m["loop.window_p80_ms"] = percentile(primary, 80)
	m["loop.window_to_install_p90_ms"] = percentile(install, 90)
	if len(delta) > 0 {
		m["loop.window_delta_p50_ms"], n["loop.window_delta_p50_ms"] = percentile(delta, 50), len(delta)
	}
	for k, v := range r.extra {
		m[k] = v
	}
	hits, misses := r.fim1.Hits-r.fim0.Hits, r.fim1.Misses-r.fim0.Misses
	m["fim.support_cache_hit_ratio"] = float64(hits) / float64(max(1, hits+misses))
	m["fim.minecache_refusals"] = float64(r.refusals1 - r.refusals0)
	m["proc.peak_rss_mb"] = peakRSSMB()
	m["proc.live_heap_mb"] = r.liveHeapMB
	m["proc.gc_pause_ms"] = float64(r.mem1.pauseNs-r.mem0.pauseNs) / 1e6
	m["proc.allocs_per_entry"] = float64(r.mem1.mallocs-r.mem0.mallocs) / float64(max(1, r.entries))

	res := &result{
		Workload: r.cfg.workload, Metrics: m, N: n, Counts: r.counts,
		Attempted: h.attempted, Failed: h.failed, Failures: h.failures, TimedWallS: r.timedWall.Seconds(),
	}
	sum := sha256.Sum256([]byte(strings.Join(r.digest, "\n")))
	res.Digest = hex.EncodeToString(sum[:6])
	if r.tr != nil {
		res.Layers = r.tr.selfTimes()
		r.spanMetrics(m, n, res.Layers)
		for k, v := range r.replay {
			m[k] = v
		}
		// What the handler itself costs: the live handler span minus the
		// decode and cloud ingest the replay timed on the same batches.
		m["httpapi.self_us"] = m["httpapi.handler_us"] - m[r.decodeMetric] - m["cloud.ingest_us_per_batch"]
		tf := traceFile{Workload: r.cfg.workload, Seed: r.cfg.seed, Scale: r.cfg.scale, WallS: res.TimedWallS,
			Layers: res.Layers, Replay: r.replay, Spans: r.tr.spans}
		if err := writeTrace(r.cfg.outDir, tf); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// spanMetrics derives the per-layer metrics that come from the timed
// run's spans.
func (r *run) spanMetrics(m map[string]float64, n map[string]int, layers []layerTime) {
	const ingestPath = " /v1/ingest/batch"
	tr := r.tr
	var reportNs float64
	for _, d := range tr.durations("transport.report") {
		reportNs += d
	}
	m["transport.report_ns"] = reportNs / float64(max(1, r.entries))
	for _, lt := range layers {
		if lt.Name == "transport.flush" {
			m["transport.flush_self_us"] = lt.SelfS * 1e6 / float64(lt.Count)
		}
	}
	trips := tr.durations("http.roundtrip" + ingestPath)
	m["httpapi.roundtrip_p50_us"] = percentile(trips, 50) / 1e3
	m["httpapi.roundtrip_p99_us"] = percentile(trips, 99) / 1e3
	n["httpapi.roundtrip_p50_us"], n["httpapi.roundtrip_p99_us"] = len(trips), len(trips)
	m["httpapi.handler_us"] = metrics.Mean(tr.durations("httpapi.handler"+ingestPath)) / 1e3
	m["httpapi.net_us"] = metrics.Mean(trips)/1e3 - m["httpapi.handler_us"]
	m["httpapi.versions_ms"] = metrics.Mean(tr.durations("http.roundtrip /v1/versions")) / 1e6
	if r.versionsCalls > 0 {
		m["httpapi.versions_bytes"] = float64(r.versionsBytes) / float64(r.versionsCalls)
	}
	var serverMs float64
	for _, w := range r.h.windows {
		serverMs += float64(w.serverMs)
	}
	if nw := len(r.h.windows); nw > 0 {
		// The server reports rca_ms and adapt_ms in whole milliseconds.
		m["cloud.run_window_self_ms"] = metrics.Mean(tr.durations("httpapi.handler /v1/analyze"))/1e6 - serverMs/float64(nw)
	}
	if r.timedWall > 0 {
		m["proc.span_coverage_pct"] = 100 * tr.topLevelSeconds() / r.timedWall.Seconds()
	}
}
