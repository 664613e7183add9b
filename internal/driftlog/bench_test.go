package driftlog

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// benchStore100k memoizes the 100k-row benchmark log shared by every
// benchmark in this file (building it dominates -benchtime otherwise).
var benchStore100k = sync.OnceValue(func() *Store {
	s := NewStore()
	base := time.Unix(0, 0).UTC()
	entries := make([]Entry, 0, 100000)
	for i := 0; i < 100000; i++ {
		entries = append(entries, Entry{
			Time:     base.Add(time.Duration(i) * time.Millisecond),
			Drift:    i%3 == 0,
			SampleID: -1,
			Attrs: map[string]string{
				AttrWeather:  []string{"clear-day", "rain", "snow", "fog"}[i%4],
				AttrLocation: fmt.Sprintf("city_%d", i%10),
				AttrDevice:   fmt.Sprintf("dev_%d", i%64),
			},
		})
	}
	s.AppendBatch(entries)
	return s
})

// benchStore1M memoizes a 1M-row log shaped like the composed
// benchmark's bulk workload: six attributes up to 2000 devices wide, one
// row per millisecond, ingested as 256-row columnar batches from two
// writers whose batches land alternately — so every shard is
// time-unsorted, as it is under two real clients. One row in twenty links
// a sample, the bulk workload's upload rate.
var benchStore1M = sync.OnceValue(func() *Store {
	const rows, batch = 1_000_000, 256
	dict := func(prefix string, n int) []string {
		d := make([]string, n+1)
		for i := 1; i <= n; i++ {
			d[i] = fmt.Sprint(prefix, i)
		}
		return d
	}
	s := NewStore()
	r := rand.New(rand.NewSource(9))
	cb := &ColumnarBatch{Times: make([]int64, batch), Drift: make([]bool, batch), SampleIDs: make([]int64, batch),
		Cols: []ColumnData{
			{Name: AttrWeather, Dict: dict("w", 6)}, {Name: AttrLocation, Dict: dict("city_", 24)},
			{Name: "hw", Dict: dict("hw_", 6)}, {Name: "os", Dict: dict("os_", 4)},
			{Name: AttrDevice, Dict: dict("dev_", 2000)},
		}}
	for ci := range cb.Cols {
		cb.Cols[ci].IDs = make([]uint32, batch)
	}
	for b := 0; b < rows/batch; b++ {
		for i := 0; i < batch; i++ {
			cb.Times[i] = int64((b^1)*batch+i) * int64(time.Millisecond)
			cb.Drift[i] = r.Intn(10) == 0
			cb.SampleIDs[i] = -1
			if i%20 == 0 {
				cb.SampleIDs[i] = int64(b*batch + i)
			}
			for ci := range cb.Cols {
				cb.Cols[ci].IDs[i] = uint32(1 + r.Intn(len(cb.Cols[ci].Dict)-1))
			}
		}
		if err := s.AppendColumns(cb); err != nil {
			panic(err)
		}
	}
	return s
})

// rowsSpanned is the row range a view's bitset loops and row walks run
// over: 64 × the window's non-zero word range, summed over shards.
func rowsSpanned(v *View) float64 {
	n := 0
	for si := range v.shards {
		n += 64 * (v.shards[si].whi - v.shards[si].wlo)
	}
	return float64(n)
}

var benchConds = []Cond{{AttrWeather, "rain"}, {AttrLocation, "city_3"}}

// BenchmarkCount pits the popcount path against the tests' row-scan
// reference (scanref_test.go) on the same 100k-row log (the scan/bitset
// variant pair is what cmd/benchjson folds into a speedup).
func BenchmarkCount(b *testing.B) {
	s := benchStore100k()
	b.Run("scan/100k", func(b *testing.B) {
		v := s.All()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := refCount(v, benchConds, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bitset/100k", func(b *testing.B) {
		v := s.All()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := v.Count(benchConds, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClearDrift measures one overlay cycle: acquire, clear every
// row matching the conditions, release.
func BenchmarkClearDrift(b *testing.B) {
	s := benchStore100k()
	b.Run("scan/100k", func(b *testing.B) {
		v := s.All()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ov := v.DriftOverlay()
			if _, err := refClearDrift(v, benchConds, ov); err != nil {
				b.Fatal(err)
			}
			ov.Release()
		}
	})
	b.Run("bitset/100k", func(b *testing.B) {
		v := s.All()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ov := v.DriftOverlay()
			if _, err := v.ClearDrift(benchConds, ov); err != nil {
				b.Fatal(err)
			}
			ov.Release()
		}
	})
}

// BenchmarkPairCounts measures the level-2 apriori pair aggregation.
func BenchmarkPairCounts(b *testing.B) {
	s := benchStore100k()
	b.Run("scan/100k", func(b *testing.B) {
		v := s.All()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refPairCounts(v, nil, nil)
		}
	})
	b.Run("bitset/100k", func(b *testing.B) {
		v := s.All()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.PairCounts(nil, nil)
		}
	})
	// The last fifth of a 1M-row log with unsorted shards — the composed
	// benchmark's fresh-window shape. rows-visited is the row range the
	// bitset loops span, to be read against the 1M rows the log holds.
	// pairs is the PairKeys the call materializes.
	b.Run("suffix-window/1M", func(b *testing.B) {
		v := benchStore1M().Window(time.Unix(800, 0), time.Time{})
		pairs := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pairs = len(v.PairCounts(nil, nil))
		}
		b.ReportMetric(rowsSpanned(v), "rows-visited")
		b.ReportMetric(float64(pairs), "pairs")
	})
	// The same window under the mask apriori hands down: the values at or
	// above 1% of the window's rows, which no device is.
	b.Run("masked/suffix-window/1M", func(b *testing.B) {
		v := benchStore1M().Window(time.Unix(800, 0), time.Time{})
		mask, floor := ValueMask{}, v.Len()/100
		for attr, byVal := range v.AttrValueCounts(nil) {
			for val, cr := range byVal {
				if cr.Total >= floor {
					if mask[attr] == nil {
						mask[attr] = map[string]bool{}
					}
					mask[attr][val] = true
				}
			}
		}
		pairs := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pairs = len(v.PairCountsMasked(nil, mask))
		}
		b.ReportMetric(rowsSpanned(v), "rows-visited")
		b.ReportMetric(float64(pairs), "pairs")
	})
}

// BenchmarkAttrValueCounts measures the level-1 apriori group-by.
func BenchmarkAttrValueCounts(b *testing.B) {
	s := benchStore100k()
	b.Run("scan/100k", func(b *testing.B) {
		v := s.All()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refAttrValueCounts(v, nil)
		}
	})
	b.Run("bitset/100k", func(b *testing.B) {
		v := s.All()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.AttrValueCounts(nil)
		}
	})
}

// BenchmarkSampleIDs measures gathering a cause's uploaded samples from the
// last fifth of the 1M-row log — always a row walk, whatever the tier.
// rows-visited is the row range the walk spans, to be read against the 1M
// rows the log holds.
func BenchmarkSampleIDs(b *testing.B) {
	b.Run("suffix-window/1M", func(b *testing.B) {
		v := benchStore1M().Window(time.Unix(800, 0), time.Time{})
		conds := []Cond{{AttrWeather, "w3"}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ids, err := v.SampleIDs(conds)
			if err != nil || len(ids) == 0 {
				b.Fatalf("%d ids, err %v", len(ids), err)
			}
		}
		b.ReportMetric(rowsSpanned(v), "rows-visited")
	})
}
