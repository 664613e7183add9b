package driftlog

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// High-cardinality counting benchmarks: the bitset index at 100 and 100k
// distinct values (the tier-up disabled via an unreachable threshold), and
// the row walk a tiered attribute takes for a counterfactual step. Each
// benchmark reports index-bytes, the live size of the bitmaps.

var sketchBenchStores sync.Map // "rows/card/tiered" → *Store

// sketchBenchStore builds (once) a benchmark log: weather and an app_version
// of card values, half of the rows drawn from 16 hot ones. tiered lets
// app_version tier up at the default threshold.
func sketchBenchStore(tb testing.TB, rows, card int, tiered bool) *Store {
	key := fmt.Sprintf("%d/%d/%v", rows, card, tiered)
	if s, ok := sketchBenchStores.Load(key); ok {
		return s.(*Store)
	}
	cfg := SketchConfig{}
	if !tiered {
		cfg.Threshold = 1 << 30
	}
	s := NewStoreWithSketch(cfg)
	r := rand.New(rand.NewSource(42))
	base := time.Unix(0, 0).UTC()
	span := time.Hour
	weathers := [3]string{"clear-day", "rain", "snow"}
	batch := make([]Entry, 0, 1<<14)
	hot := 16
	if hot > card {
		hot = card
	}
	for i := 0; i < rows; i++ {
		w := weathers[r.Intn(3)]
		v := r.Intn(card)
		if r.Float64() < 0.5 {
			v = r.Intn(hot)
		}
		p := 0.02
		if w == "snow" {
			p = 0.5
		}
		if v == 0 {
			p = 0.7
		}
		batch = append(batch, Entry{
			Time:     base.Add(span * time.Duration(i) / time.Duration(rows)),
			Drift:    r.Float64() < p,
			SampleID: -1,
			Attrs: map[string]string{
				AttrWeather:   w,
				"app_version": "v" + fmt.Sprint(v),
			},
		})
		if len(batch) == cap(batch) {
			s.AppendBatch(batch)
			batch = batch[:0]
		}
	}
	s.AppendBatch(batch)
	sketchBenchStores.Store(key, s)
	return s
}

// indexBytes is the resident size of the bitmaps.
func indexBytes(s *Store) float64 { return float64(s.Stats().IndexWords * 8) }

var sketchBenchCases = []struct {
	name       string
	rows, card int
}{
	{"100kx100", 100_000, 100},
	{"1Mx100", 1_000_000, 100},
	{"100kx100k", 100_000, 100_000},
}

// benchExact runs one query per benchmark case on the untiered store's
// whole log.
func benchExact(b *testing.B, query func(v *View) int) {
	for _, c := range sketchBenchCases {
		b.Run("exact/"+c.name, func(b *testing.B) {
			s := sketchBenchStore(b, c.rows, c.card, false)
			v := s.All()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if query(v) == 0 {
					b.Fatal("empty aggregation")
				}
			}
			b.ReportMetric(indexBytes(s), "index-bytes")
		})
	}
}

// BenchmarkSketchCount measures one conditioned support count over a
// 30-minute sub-window (the shape the sliding-window miner issues).
func BenchmarkSketchCount(b *testing.B) {
	base := time.Unix(0, 0).UTC()
	for _, c := range sketchBenchCases {
		b.Run("exact/"+c.name, func(b *testing.B) {
			s := sketchBenchStore(b, c.rows, c.card, false)
			v := s.Window(base.Add(10*time.Minute), base.Add(40*time.Minute))
			conds := []Cond{{Attr: "app_version", Value: "v0"}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.Count(conds, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(indexBytes(s), "index-bytes")
		})
	}
}

// BenchmarkSketchValueCounts measures the per-value group-by that seeds
// mining's level-1 candidates: a popcount per value up to maxValueSweep
// values, one walk of the window's rows past it.
func BenchmarkSketchValueCounts(b *testing.B) {
	benchExact(b, func(v *View) int { return len(v.AttrValueCounts(nil)) })
}

// BenchmarkSketchPairCounts measures the unmasked pair group-by: past
// maxPairCross kept pairs, one walk of the window's rows.
func BenchmarkSketchPairCounts(b *testing.B) {
	benchExact(b, func(v *View) int { return len(v.PairCounts(nil, nil)) })
}

// BenchmarkSketchCounterfactual measures one counterfactual step on a
// tiered condition — acquire an overlay, clear the condition's drift
// flags, re-count it under the mutated overlay, release — over the last ten
// minutes of the hour-long 1M-row log. app_version has no bitmaps, so both
// calls walk the window's rows. rows-visited is the row range one walk
// spans, to be read against the 1M rows the shards hold.
func BenchmarkSketchCounterfactual(b *testing.B) {
	b.Run("suffix-window/1Mx100k", func(b *testing.B) {
		s := sketchBenchStore(b, 1_000_000, 100_000, true)
		v := s.Window(time.Unix(0, 0).UTC().Add(50*time.Minute), time.Time{})
		conds := []Cond{{Attr: "app_version", Value: "v0"}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ov := v.DriftOverlay()
			n, err := v.ClearDrift(conds, ov)
			if err != nil || n == 0 {
				b.Fatalf("cleared %d, err %v", n, err)
			}
			if cr, err := v.Count(conds, ov); err != nil || cr.Total == 0 || cr.Drift != 0 {
				b.Fatalf("re-count %+v, err %v", cr, err)
			}
			ov.Release()
		}
		b.ReportMetric(rowsSpanned(v), "rows-visited")
		b.ReportMetric(indexBytes(s), "index-bytes")
	})
}

// BenchmarkSketchAppend measures Store.appendColumns with tiered
// attributes over batches shaped like the composed benchmark's
// highcard_analyze (eight attributes, app_version and firmware tiered and
// drawn half from 16 hot values, 250 ms of event time per row), in µs/row
// and allocs/row.
func BenchmarkSketchAppend(b *testing.B) {
	for _, rows := range []int{128, 16} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			r := rand.New(rand.NewSource(7))
			// Above the 2,000 devices, so device stays on the exact tier.
			s := NewStoreWithSketch(SketchConfig{Threshold: 2048})
			step := int64(250 * time.Millisecond)
			now := int64(0)
			batches := make([]*ColumnarBatch, 512)
			for i := range batches {
				entries := make([]Entry, rows)
				for j := range entries {
					d := r.Intn(2000)
					hc := func(prefix string, card int) string {
						v := r.Intn(card)
						if r.Float64() < 0.5 {
							v = r.Intn(16)
						}
						return fmt.Sprintf("%s_%d", prefix, v)
					}
					entries[j] = Entry{
						Drift:    r.Float64() < 0.1,
						SampleID: -1,
						Attrs: map[string]string{
							AttrDevice:    fmt.Sprintf("dev_%04d", d),
							AttrLocation:  fmt.Sprintf("city_%02d", d%24),
							AttrWeather:   fmt.Sprintf("w%d", r.Intn(6)),
							"hw":          fmt.Sprintf("hw_%d", d/24%6),
							"os":          fmt.Sprintf("os_%d", d/144%4),
							AttrModel:     fmt.Sprintf("v%d", r.Intn(3)),
							"app_version": hc("a", 20_000),
							"firmware":    hc("f", 8_000),
						},
					}
				}
				batches[i] = ColumnsFromEntries(entries)
			}
			next := func(i int) *ColumnarBatch {
				cb := batches[i%len(batches)]
				for j := range cb.Times {
					cb.Times[j] = now
					now += step
				}
				return cb
			}
			// Warm: both attributes tier up and their dictionaries fill, so the
			// timed appends intern like a long-running log.
			warm := 0
			for ; len(s.SketchedAttrs()) < 2 || warm < 8192/rows; warm++ {
				s.appendColumns(next(warm))
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.appendColumns(next(warm + i))
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			fed := float64(b.N * rows)
			b.ReportMetric(float64(b.Elapsed().Microseconds())/fed, "µs/row")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/fed, "allocs/row")
		})
	}
}
