package fim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"nazar/internal/driftlog"
)

// benchLog memoizes one drifting store per size across benchmarks.
var benchLogs sync.Map // int -> *driftlog.Store

func benchLog(n int) *driftlog.Store {
	if s, ok := benchLogs.Load(n); ok {
		return s.(*driftlog.Store)
	}
	s := synthLog(rand.New(rand.NewSource(int64(n))), n)
	benchLogs.Store(n, s)
	return s
}

// benchFleet1M memoizes a 1M-row log shaped like the composed benchmark's
// bulk workload: 2,000 devices, location / hw / os functions of the device,
// six weathers, one row per millisecond in 256-row columnar batches from two
// alternating writers (every shard time-unsorted), drift planted on
// weather=w3 and on the hw_3 ∧ city_7 cohort.
var benchFleet1M = sync.OnceValue(func() *driftlog.Store {
	const rows, batch, devices = 1_000_000, 256, 2000
	dict := func(prefix string, n int) []string {
		d := make([]string, n+1)
		for i := 1; i <= n; i++ {
			d[i] = fmt.Sprint(prefix, i-1)
		}
		return d
	}
	s := driftlog.NewStore()
	r := rand.New(rand.NewSource(9))
	cb := &driftlog.ColumnarBatch{Times: make([]int64, batch), Drift: make([]bool, batch), SampleIDs: make([]int64, batch),
		Cols: []driftlog.ColumnData{
			{Name: driftlog.AttrWeather, Dict: dict("w", 6)}, {Name: driftlog.AttrLocation, Dict: dict("city_", 24)},
			{Name: "hw", Dict: dict("hw_", 6)}, {Name: "os", Dict: dict("os_", 4)},
			{Name: driftlog.AttrDevice, Dict: dict("dev_", devices)},
		}}
	for ci := range cb.Cols {
		cb.Cols[ci].IDs = make([]uint32, batch)
	}
	for b := 0; b < rows/batch; b++ {
		for i := 0; i < batch; i++ {
			d, w := r.Intn(devices), r.Intn(6)
			loc, hw := d%24, d/24%6
			p := 0.03
			if w == 3 || (loc == 7 && hw == 3) {
				p = 0.7
			}
			cb.Times[i] = int64((b^1)*batch+i) * int64(time.Millisecond)
			cb.Drift[i] = r.Float64() < p
			cb.SampleIDs[i] = -1
			for ci, id := range [5]int{w, loc, hw, d / 144 % 4, d} {
				cb.Cols[ci].IDs[i] = uint32(id + 1)
			}
		}
		if err := s.AppendColumns(cb); err != nil {
			panic(err)
		}
	}
	return s
})

// benchTieredGrown builds the composed benchmark's highcard shape: 64k rows
// whose app_version (20,000 values, half the rows on 16 hot ones) tiers up,
// mined whole into a MineCache, then grown by one 256-row batch. It returns
// the grown cumulative window, its delta and the cache.
func benchTieredGrown() (v, delta *driftlog.View, cache *MineCache) {
	s := driftlog.NewStore()
	r := rand.New(rand.NewSource(12))
	batch := func(n int) []driftlog.Entry {
		out := make([]driftlog.Entry, n)
		for i := range out {
			d, w, app := r.Intn(2000), r.Intn(6), r.Intn(16)
			if r.Intn(2) == 0 {
				app = r.Intn(20_000)
			}
			p := 0.03
			if w == 2 || (d%24 == 7 && app == 3) {
				p = 0.7
			}
			out[i] = driftlog.Entry{Time: time.Unix(int64(r.Intn(3600)), 0), Drift: r.Float64() < p, SampleID: -1,
				Attrs: map[string]string{driftlog.AttrWeather: fmt.Sprint("w", w), driftlog.AttrLocation: fmt.Sprint("city_", d%24),
					driftlog.AttrDevice: fmt.Sprint("dev_", d), "app_version": fmt.Sprint("a_", app)}}
		}
		return out
	}
	for range 250 {
		s.AppendBatch(batch(256))
	}
	first := s.All()
	_, to := first.Bounds()
	_, cache, err := MineCachedContext(context.Background(), NewSupportCache(first), nil, nil, nil, DefaultThresholds())
	if err != nil {
		panic(err)
	}
	s.AppendBatch(batch(256))
	v = s.All()
	if delta, err = v.Since(first.ShardRows(), to); err != nil {
		panic(err)
	}
	return v, delta, cache
}

// BenchmarkMine is the headline number of this layer: full apriori
// mining over a window on the bitset index. fresh/200k-of-1M is the
// composed benchmark's fresh-window shape — the last fifth of benchFleet1M
// — and reports the work beside the time: values level 1 counted, pairs the
// store materialized and level-3 candidates counted, per mine. grown-tiered is its grown
// cumulative-window shape over a tiered attribute (benchTieredGrown).
func BenchmarkMine(b *testing.B) {
	th := DefaultThresholds()
	b.Run("fresh/200k-of-1M", func(b *testing.B) {
		v := benchFleet1M().Window(time.Unix(800, 0), time.Time{})
		before := ReadMineStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := MineContext(context.Background(), v, nil, th); err != nil {
				b.Fatal(err)
			}
		}
		after := ReadMineStats()
		b.ReportMetric(float64(after.Candidates[0]-before.Candidates[0])/float64(b.N), "level1-values")
		b.ReportMetric(float64(after.PairsCounted-before.PairsCounted)/float64(b.N), "pairs")
		b.ReportMetric(float64(after.Candidates[2]-before.Candidates[2])/float64(b.N), "level3-cands")
	})
	b.Run("grown-tiered", func(b *testing.B) {
		v, delta, cache := benchTieredGrown()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := MineCachedContext(context.Background(), NewSupportCache(v), delta, cache, nil, th); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{10000, 100000} {
		s := benchLog(n)
		b.Run(fmt.Sprintf("bitset/%dk", n/1000), func(b *testing.B) {
			v := s.All()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MineContext(context.Background(), v, nil, th); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMineRerun measures the incremental window cache: first =
// a full fresh mine; cached = re-mining an unchanged window through the
// previous MineCache and an empty delta (the steady idle-fleet case,
// which should cost almost nothing).
func BenchmarkMineRerun(b *testing.B) {
	th := DefaultThresholds()
	s := benchLog(100000)
	v := s.All()
	_, to := v.Bounds()
	b.Run("first/100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := MineCachedContext(context.Background(), NewSupportCache(v), nil, nil, nil, th); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached/100k", func(b *testing.B) {
		_, cache, err := MineCachedContext(context.Background(), NewSupportCache(v), nil, nil, nil, th)
		if err != nil {
			b.Fatal(err)
		}
		empty, err := v.Since(v.ShardRows(), to)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := MineCachedContext(context.Background(), NewSupportCache(v), empty, cache, nil, th); err != nil {
				b.Fatal(err)
			}
		}
	})
}
