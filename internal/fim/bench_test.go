package fim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

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

// BenchmarkMine is the headline number of this layer: full apriori
// mining over a window on the bitset index.
func BenchmarkMine(b *testing.B) {
	th := DefaultThresholds()
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
