package main

import (
	"bytes"
	"context"
	"path/filepath"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/cloud"
	"nazar/internal/dataset"
	"nazar/internal/detect"
	"nazar/internal/device"
	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/httpapi"
	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/registry"
	"nazar/internal/tensor"
)

// layerInputs is what the layer replay feeds each layer: the batches the
// timed run sent and the live service it left behind, with the bounds of
// its last window.
type layerInputs struct {
	wal      bool // the workload's service has a WAL
	cfg      cloud.Config
	base     *nn.Network
	batches  [][]batch // per client; nil on city_loop
	svc      *cloud.Service
	from, to time.Time
	city     *cityInputs
}

type cityInputs struct {
	ds        *dataset.Dataset
	devices   map[string]*device.Device
	batchRows int // mean rows per batch the transport shipped in the pass
}

const (
	replayBatches = 256 // batches sampled for per-batch layer timings
	replayReps    = 5   // repetitions of per-window layer timings; the median is kept
)

// medianOf times fn reps times and returns the median in the given unit.
func medianOf(reps int, unit time.Duration, fn func()) float64 {
	vals := make([]float64, reps)
	for i := range vals {
		start := time.Now()
		fn()
		vals[i] = float64(time.Since(start)) / float64(unit)
	}
	return percentile(vals, 50)
}

// replayLayers is the second half of a traced run: after the timed
// section it calls each layer's exported functions directly with the
// run's own inputs, so every layer has a time of its own. Results land
// in r.replay under the per-layer metric names.
func (r *run) replayLayers(in layerInputs) {
	ctx := context.Background()
	out := r.replay

	// The batches in ingest order; on city_loop, built by running the
	// devices over the head of the stream (which times inference too).
	var ordered []batch
	if in.city != nil {
		ordered = r.replayDevices(in)
	} else {
		for b := range in.batches[0] {
			for c := range in.batches {
				ordered = append(ordered, in.batches[c][b])
			}
		}
	}
	stride := max(1, len(ordered)/replayBatches)
	var sample []batch
	for i := 0; i < len(ordered); i += stride {
		sample = append(sample, ordered[i])
	}
	sampleRows := 0
	for _, b := range sample {
		sampleRows += len(b.entries)
	}
	n := float64(len(sample))

	// Codecs: what the client encodes and the handler decodes.
	for _, cd := range []struct {
		codec          httpapi.Codec
		enc, dec, size string
	}{
		{httpapi.BinaryCodec{}, "wire.encode_us_per_batch", "wire.decode_us_per_batch", "wire.bytes_per_row"},
		{httpapi.JSONCodec{}, "httpapi.json_encode_us_per_batch", "httpapi.json_decode_us_per_batch", "httpapi.json_bytes_per_row"},
	} {
		var encNs, decNs time.Duration
		size := 0
		for _, b := range sample {
			start := time.Now()
			data, err := cd.codec.EncodeBatch(&httpapi.BatchFrame{Entries: b.entries, Samples: b.samples})
			encNs += time.Since(start)
			if err != nil {
				r.h.fail("replay encode", err)
				continue
			}
			size += len(data)
			start = time.Now()
			_, err = cd.codec.DecodeBatch(bytes.NewReader(data), 4096)
			decNs += time.Since(start)
			if err != nil {
				r.h.fail("replay decode", err)
			}
		}
		out[cd.enc] = float64(encNs.Microseconds()) / n
		out[cd.dec] = float64(decNs.Microseconds()) / n
		out[cd.size] = float64(size) / float64(sampleRows)
	}

	// Store append: every batch, in ingest order, into a fresh store, so
	// dictionaries, bitmaps and tier-ups grow as they did live.
	store := driftlog.NewStoreWithSketch(in.cfg.Sketch)
	var appendNs time.Duration
	var appendAllocs uint64
	rows := 0
	for lo := 0; lo < len(ordered); lo += replayBatches {
		chunk := ordered[lo:min(len(ordered), lo+replayBatches)]
		cols := make([]*driftlog.ColumnarBatch, len(chunk))
		for i, b := range chunk {
			cols[i] = driftlog.ColumnsFromEntries(b.entries)
			rows += len(b.entries)
		}
		m0 := readMem()
		start := time.Now()
		for _, cb := range cols {
			if err := store.AppendColumns(cb); err != nil {
				r.h.fail("replay store append", err)
			}
		}
		appendNs += time.Since(start)
		appendAllocs += readMem().mallocs - m0.mallocs
	}
	out["driftlog.store_append_us_per_batch"] = float64(appendNs.Microseconds()) / float64(len(ordered))
	out["driftlog.store_append_allocs_per_row"] = float64(appendAllocs) / float64(rows)

	// WAL append and cloud ingest on the sampled batches.
	if in.wal {
		s := driftlog.NewStoreWithSketch(in.cfg.Sketch)
		w, err := driftlog.OpenWAL(filepath.Join(r.work, "replay-wal"), s, nazardWAL)
		if err != nil {
			r.h.fail("replay OpenWAL", err)
		} else {
			var ns time.Duration
			for _, b := range sample {
				cb := driftlog.ColumnsFromEntries(b.entries)
				start := time.Now()
				err := w.AppendColumns(cb)
				ns += time.Since(start)
				if err != nil {
					r.h.fail("replay wal append", err)
				}
			}
			_ = w.Close()
			out["driftlog.wal_append_us_per_batch"] = float64(ns.Microseconds()) / n
		}
	}
	ingest := func(walDir string) float64 {
		var opts []cloud.Option
		if walDir != "" {
			opts = append(opts, cloud.WithWAL(walDir, nazardWAL))
		}
		svc := cloud.NewService(in.base, in.cfg, opts...)
		defer svc.Close()
		var ns time.Duration
		for _, b := range sample {
			// Fresh copies: ingest rewrites sample ids in place.
			var err error
			if in.city != nil {
				entries := append([]driftlog.Entry(nil), b.entries...)
				start := time.Now()
				err = svc.IngestBatchContext(ctx, entries, b.samples)
				ns += time.Since(start)
			} else {
				cb := driftlog.ColumnsFromEntries(b.entries)
				start := time.Now()
				err = svc.IngestColumnsContext(ctx, cb, b.samples)
				ns += time.Since(start)
			}
			if err != nil {
				r.h.fail("replay ingest", err)
			}
		}
		return float64(ns.Microseconds()) / n
	}
	noWAL := ingest("")
	out["cloud.ingest_us_per_batch"] = noWAL
	if in.wal {
		out["cloud.ingest_us_per_batch"] = ingest(filepath.Join(r.work, "replay-ingest-wal"))
	}
	out["cloud.ingest_self_us_per_batch"] = noWAL - out["driftlog.store_append_us_per_batch"]

	// The last window's view of the live store, and everything analysis
	// does with it.
	live := in.svc.Log()
	var v *driftlog.View
	out["driftlog.window_us"] = medianOf(replayReps, time.Microsecond, func() { v = live.Window(in.from, in.to) })
	th := in.cfg.Thresholds
	exclude := map[string]bool{}
	for _, a := range th.ExcludeAttrs {
		exclude[a] = true
	}
	out["driftlog.attr_value_counts_ms"] = medianOf(replayReps, time.Millisecond, func() { v.AttrValueCounts(nil) })
	out["driftlog.pair_counts_ms"] = medianOf(replayReps, time.Millisecond, func() { v.PairCounts(nil, exclude) })

	var results []fim.Result
	out["fim.mine_ms"] = medianOf(replayReps, time.Millisecond, func() {
		var err error
		if results, err = fim.MineContext(ctx, v, nil, th); err != nil {
			r.h.fail("replay mine", err)
		}
	})
	out["fim.results"] = float64(len(results))
	// The delta path: mine a window that ends one tenth earlier, then the
	// full window from that cache plus the rows since.
	mid := in.to.Add(-in.to.Sub(viewStart(in)) / 10)
	prev := live.Window(in.from, mid)
	_, cache, err := fim.MineCachedContext(ctx, fim.NewSupportCache(prev), nil, nil, nil, th)
	if err != nil {
		r.h.fail("replay mine (previous window)", err)
	}
	_, prevTo := prev.Bounds()
	if delta, err := v.Since(prev.ShardRows(), prevTo); err != nil {
		r.h.fail("replay delta view", err)
	} else {
		out["fim.mine_cached_ms"] = medianOf(replayReps, time.Millisecond, func() {
			if _, _, err := fim.MineCachedContext(ctx, fim.NewSupportCache(v), delta, cache, nil, th); err != nil {
				r.h.fail("replay cached mine", err)
			}
		})
	}

	var assocs []rca.Association
	out["rca.set_reduction_us"] = medianOf(replayReps, time.Microsecond, func() { assocs = rca.SetReduction(results) })
	var causes []rca.Cause
	out["rca.counterfactual_ms"] = medianOf(replayReps, time.Millisecond, func() {
		var err error
		if causes, err = rca.CounterfactualContext(ctx, v, assocs, th); err != nil {
			r.h.fail("replay counterfactual", err)
		}
	})
	out["rca.causes"] = float64(len(causes))
	conds := []driftlog.Cond{{Attr: driftlog.AttrWeather, Value: plantedWeather}}
	if len(causes) > 0 {
		conds = causes[0].Items
	}
	out["driftlog.count_us"] = medianOf(replayReps, time.Microsecond, func() { _, _ = v.Count(conds, nil) })
	out["driftlog.sample_ids_us"] = medianOf(replayReps, time.Microsecond, func() { _, _ = v.SampleIDs(conds) })

	out["cloud.diagnose_ms"] = medianOf(replayReps, time.Millisecond, func() {
		if _, err := in.svc.DiagnoseContext(ctx, in.from, in.to, in.to); err != nil {
			r.h.fail("replay diagnose", err)
		}
	})
	out["cloud.adapt_causes_ms"] = medianOf(1, time.Millisecond, func() {
		if _, err := in.svc.AdaptCausesContext(ctx, causes, in.from, in.to, in.to); err != nil {
			r.h.fail("replay adapt causes", err)
		}
	})

	// Adaptation and install, fed from the live sample store the way
	// cloud.RunWindow feeds them.
	gathered, withSamples := 0, 0
	source := func(c rca.Cause) *tensor.Matrix {
		ids, err := v.SampleIDs(c.Items)
		if err != nil {
			return nil
		}
		m := in.svc.Samples().Gather(ids)
		if m != nil {
			gathered += m.Rows
			withSamples++
		}
		return m
	}
	var versions []adapt.BNVersion
	out["adapt.by_cause_ms"] = medianOf(1, time.Millisecond, func() {
		var err error
		versions, err = adapt.ByCauseContext(ctx, in.svc.Base(), causes, source, in.cfg.MinSamplesPerCause, in.cfg.AdaptCfg, in.to)
		if err != nil {
			r.h.fail("replay by-cause adaptation", err)
		}
	})
	out["adapt.versions"] = float64(len(versions))
	out["adapt.samples_per_cause"] = float64(gathered) / float64(max(1, withSamples))
	// Clean re-adaptation and install happen on city_loop only; a window
	// there with too few samples or no version reports 0 for them.
	if in.cfg.AdaptClean {
		out["adapt.clean_ms"], out["registry.install_us"] = 0, 0
		if cleanX := cleanSamples(in.svc, v, causes); cleanX != nil && cleanX.Rows >= in.cfg.MinSamplesPerCause {
			out["adapt.clean_ms"] = medianOf(1, time.Millisecond, func() {
				if _, err := adapt.AdaptContext(ctx, in.svc.Base(), cleanX, in.cfg.AdaptCfg); err != nil {
					r.h.fail("replay clean adaptation", err)
				}
			})
		}
	}
	pool := registry.NewPool(in.base, 0)
	if len(versions) > 0 {
		start := time.Now()
		for _, ver := range versions {
			if err := pool.Install(ver, in.to); err != nil {
				r.h.fail("replay install", err)
			}
		}
		out["registry.install_us"] = float64(time.Since(start).Microseconds()) / float64(len(versions))
	}
	attrs := ordered[0].entries[0].Attrs
	const selects = 10_000
	start := time.Now()
	for i := 0; i < selects; i++ {
		pool.Select(attrs)
	}
	out["registry.select_ns"] = float64(time.Since(start).Nanoseconds()) / selects
}

// viewStart is the lower bound used to place the delta split: the
// window's own, or the first row's event time when it is unbounded.
func viewStart(in layerInputs) time.Time {
	if !in.from.IsZero() {
		return in.from
	}
	return eventStart
}

// cleanSamples gathers the window's samples that match no cause, as
// cloud.RunWindow does for the clean model.
func cleanSamples(svc *cloud.Service, v *driftlog.View, causes []rca.Cause) *tensor.Matrix {
	all, err := v.SampleIDs(nil)
	if err != nil {
		return nil
	}
	caused := map[int64]bool{}
	for _, c := range causes {
		ids, _ := v.SampleIDs(c.Items)
		for _, id := range ids {
			caused[id] = true
		}
	}
	var clean []int64
	for _, id := range all {
		if !caused[id] {
			clean = append(clean, id)
		}
	}
	return svc.Samples().Gather(clean)
}

// replayDevices runs the devices over the head of the stream, timing
// Infer and its two parts, and returns what they reported in batches of
// the size the transport shipped on average.
func (r *run) replayDevices(in layerInputs) []batch {
	items := in.city.ds.Stream[:min(len(in.city.ds.Stream), 2048)]
	var ordered []batch
	var cur batch
	start := time.Now()
	for _, it := range items {
		_, e, s := in.city.devices[it.DeviceID].Infer(it.Time, it.X, map[string]string{driftlog.AttrWeather: "clear-day"})
		cur.entries = append(cur.entries, e)
		cur.samples = append(cur.samples, s)
		if len(cur.entries) == in.city.batchRows {
			ordered = append(ordered, cur)
			cur = batch{}
		}
	}
	n := float64(len(items))
	r.replay["device.infer_us"] = float64(time.Since(start).Microseconds()) / n
	if len(cur.entries) > 0 {
		ordered = append(ordered, cur)
	}
	net := in.svc.Base()
	logits := make([][]float64, len(items))
	start = time.Now()
	for i, it := range items {
		logits[i] = net.LogitsOne(it.X)
	}
	r.replay["nn.logits_one_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / n
	start = time.Now()
	for _, l := range logits {
		detect.MSP{}.Score(l)
	}
	r.replay["detect.msp_us"] = float64(time.Since(start).Nanoseconds()) / 1e3 / n
	return ordered
}
