package fim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
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

// BenchmarkMine is the headline number of this layer: full apriori
// mining over a window on the bitset index. fresh/200k-of-1M is the
// composed benchmark's fresh-window shape — the last fifth of benchFleet1M
// — and reports the work beside the time: pairs the store materialized and
// level-3 candidates counted, per mine.
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
		b.ReportMetric(float64(after.PairsCounted-before.PairsCounted)/float64(b.N), "pairs")
		b.ReportMetric(float64(after.Candidates[2]-before.Candidates[2])/float64(b.N), "level3-cands")
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

// BenchmarkCandidateSort isolates the satellite fix of not rebuilding
// Itemset.Key strings inside the mining loop: sorting candidates by a
// precomputed key vs calling Key() in the comparator.
func BenchmarkCandidateSort(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	base := make([]counted, 300)
	for i := range base {
		set := NewItemset(
			driftlog.Cond{Attr: driftlog.AttrWeather, Value: fmt.Sprintf("w%d", r.Intn(50))},
			driftlog.Cond{Attr: driftlog.AttrLocation, Value: fmt.Sprintf("c%d", r.Intn(50))},
			driftlog.Cond{Attr: driftlog.AttrDevice, Value: fmt.Sprintf("d%d", r.Intn(50))},
		)
		base[i] = counted{set: set, key: set.Key()}
	}
	scratch := make([]counted, len(base))
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scratch, base)
			sort.Slice(scratch, func(x, y int) bool {
				return scratch[x].set.Key() < scratch[y].set.Key()
			})
		}
	})
	b.Run("keyed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scratch, base)
			sortCounted(scratch)
		}
	})
}
