package driftlog

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Sketch-vs-exact counting benchmarks. The exact variant pins the
// bitset index (sketching disabled via an unreachable threshold); the
// sketch variant lets high-cardinality attributes tier up. Each
// benchmark reports index-bytes — the live size of the structure that
// answers the count — so BENCH_sketch.json captures the memory trade
// alongside the latency one.

var sketchBenchStores sync.Map // "rows/card/variant" → *Store

func sketchBenchStore(tb testing.TB, rows, card int, sketch bool) *Store {
	return sketchBenchStoreFrom(rows, card, sketch, false)
}

// sketchBenchStoreFrom builds (once) a benchmark log. interleaved swaps
// adjacent 128-row runs of the time sequence — two writers whose batches
// land alternately — which leaves every shard time-unsorted.
func sketchBenchStoreFrom(rows, card int, sketch, interleaved bool) *Store {
	key := fmt.Sprintf("%d/%d/%v/%v", rows, card, sketch, interleaved)
	if s, ok := sketchBenchStores.Load(key); ok {
		return s.(*Store)
	}
	cfg := SketchConfig{}
	if !sketch {
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
		ti := i
		if interleaved {
			ti = i ^ 128
		}
		batch = append(batch, Entry{
			Time:     base.Add(span * time.Duration(ti) / time.Duration(rows)),
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

// indexBytes is the resident size of whichever structure answers
// value-membership queries: exact bitset words or sketch bytes.
func indexBytes(s *Store) float64 {
	st := s.Stats()
	return float64(st.IndexWords*8) + float64(st.SketchBytes)
}

var sketchBenchCases = []struct {
	name       string
	rows, card int
	variants   []bool // false = exact, true = sketch
}{
	{"100kx100", 100_000, 100, []bool{false}},
	{"1Mx100", 1_000_000, 100, []bool{false}},
	{"100kx100k", 100_000, 100_000, []bool{false, true}},
	{"1Mx100k", 1_000_000, 100_000, []bool{true}},
}

func variantName(sketch bool) string {
	if sketch {
		return "sketch"
	}
	return "exact"
}

// BenchmarkSketchCount measures one conditioned support count over a
// bucket-aligned 30-minute sub-window (the shape the sliding-window
// miner issues).
func BenchmarkSketchCount(b *testing.B) {
	base := time.Unix(0, 0).UTC()
	for _, c := range sketchBenchCases {
		for _, sketch := range c.variants {
			b.Run(variantName(sketch)+"/"+c.name, func(b *testing.B) {
				s := sketchBenchStore(b, c.rows, c.card, sketch)
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
}

// BenchmarkSketchValueCounts measures the per-value group-by that
// seeds mining's level-1 candidates: the exact tier walks every
// distinct value, the sketch tier only its heavy-hitter candidates.
func BenchmarkSketchValueCounts(b *testing.B) {
	for _, c := range sketchBenchCases {
		for _, sketch := range c.variants {
			b.Run(variantName(sketch)+"/"+c.name, func(b *testing.B) {
				s := sketchBenchStore(b, c.rows, c.card, sketch)
				v := s.All()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := v.AttrValueCounts(nil); len(got) == 0 {
						b.Fatal("empty group-by")
					}
				}
				b.ReportMetric(indexBytes(s), "index-bytes")
			})
		}
	}
	b.Run("sketch-interleaved/100kx100k", func(b *testing.B) {
		benchInterleavedSketch(b, func(v *View) int { return len(v.AttrValueCounts(nil)) })
	})
}

// BenchmarkSketchPairCounts measures the level-2 pair aggregation on the
// sketch tier: pair-ring heavy hitters, each estimated over the window.
func BenchmarkSketchPairCounts(b *testing.B) {
	b.Run("sketch/100kx100k", func(b *testing.B) {
		s := sketchBenchStore(b, 100_000, 100_000, true)
		v := s.All()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := v.PairCounts(nil, nil); len(got) == 0 {
				b.Fatal("empty pair aggregation")
			}
		}
		b.ReportMetric(indexBytes(s), "index-bytes")
	})
	b.Run("sketch-interleaved/100kx100k", func(b *testing.B) {
		benchInterleavedSketch(b, func(v *View) int { return len(v.PairCounts(nil, nil)) })
	})
}

// BenchmarkSketchCounterfactual measures one counterfactual step on a
// sketched condition — acquire an overlay, clear the condition's drift
// flags, re-count it under the mutated overlay, release — over the last ten
// minutes of the hour-long 1M-row log. Neither call can read the sketches
// (a clear is never approximate; they aggregate stored drift), so both walk
// the window's rows. rows-visited is the row range one walk spans, to be
// read against the 1M rows the shards hold.
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

// benchInterleavedSketch times one window close on the traffic shape the
// composed benchmark found: two interleaved writers (every shard
// time-unsorted) and a cumulative window whose `to` is off the 10-minute
// bucket grid, so the last bucket is an exact edge. Each iteration pins a
// fresh view, as every analysis does, so the once-per-view edge resolution
// is inside the timing. rows-visited is the edge rows that resolution
// counts exactly (per ring, summed over shards) — to be read against the
// 100k rows × heavy-hitter candidates a per-candidate rescan would visit.
func benchInterleavedSketch(b *testing.B, query func(v *View) int) {
	s := sketchBenchStoreFrom(100_000, 100_000, true, true)
	to := time.Unix(0, 0).UTC().Add(47*time.Minute + 13*time.Second)
	var v *View
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v = s.Window(time.Time{}, to)
		if query(v) == 0 {
			b.Fatal("empty aggregation")
		}
	}
	b.StopTimer()
	visited := 0
	rings := []*attrSketch{v.sketchWin().pairs.ring}
	for _, rw := range v.sketchWin().vals {
		rings = append(rings, rw.ring)
	}
	for _, ring := range rings {
		_, edges := ring.cover(v.from, v.to)
		for si := range v.shards {
			visited += len(v.shards[si].edgeRows(edges, nil))
		}
	}
	b.ReportMetric(float64(visited), "rows-visited")
	b.ReportMetric(indexBytes(s), "index-bytes")
}

// BenchmarkSketchAppend measures Store.appendColumns on the sketch tier
// over batches shaped like the composed benchmark's highcard_analyze
// (eight attributes, app_version and firmware sketched and drawn half from
// 16 hot values, 250 ms of event time per row): two value-ring adds and
// thirteen pair-ring adds per row. Beside µs/row it reports allocs/row and
// distinct-keys/row — the Count-Min adds the batch feed's grouping left of
// those fifteen.
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
			// Warm: both attributes tier up and the Space-Saving summaries
			// fill, so the timed appends evict like a long-running log.
			warm := 0
			for ; len(s.SketchedAttrs()) < 2 || warm < 8192/rows; warm++ {
				s.appendColumns(next(warm))
			}
			st0 := s.Stats()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.appendColumns(next(warm + i))
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			st1 := s.Stats()
			fed := float64(b.N * rows)
			b.ReportMetric(float64(b.Elapsed().Microseconds())/fed, "µs/row")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/fed, "allocs/row")
			b.ReportMetric(float64(st1.SketchFeedKeys-st0.SketchFeedKeys)/float64(st1.SketchFeedRows-st0.SketchFeedRows), "distinct-keys/row")
		})
	}
}
