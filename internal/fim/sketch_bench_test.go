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

// Mining benchmarks over logs whose app_version has 100 or 100k distinct
// values, every column on the bitset index.

var mineBenchStores sync.Map // "rows/card" → *driftlog.Store

func mineBenchStore(tb testing.TB, rows, card int) *driftlog.Store {
	key := fmt.Sprintf("%d/%d", rows, card)
	if s, ok := mineBenchStores.Load(key); ok {
		return s.(*driftlog.Store)
	}
	s := driftlog.NewStoreWithSketch(driftlog.SketchConfig{Threshold: 1 << 30})
	r := rand.New(rand.NewSource(42))
	base := time.Unix(0, 0).UTC()
	span := time.Hour
	weathers := [3]string{"clear-day", "rain", "snow"}
	batch := make([]driftlog.Entry, 0, 1<<14)
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
		batch = append(batch, driftlog.Entry{
			Time:     base.Add(span * time.Duration(i) / time.Duration(rows)),
			Drift:    r.Float64() < p,
			SampleID: -1,
			Attrs: map[string]string{
				driftlog.AttrWeather: w,
				"app_version":        "v" + fmt.Sprint(v),
			},
		})
		if len(batch) == cap(batch) {
			s.AppendBatch(batch)
			batch = batch[:0]
		}
	}
	s.AppendBatch(batch)
	mineBenchStores.Store(key, s)
	return s
}

var mineBenchCases = []struct {
	name       string
	rows, card int
}{
	{"100kx100", 100_000, 100},
	{"1Mx100", 1_000_000, 100},
	{"100kx100k", 100_000, 100_000},
}

// BenchmarkSketchMine is one full from-scratch mine of the whole log.
func BenchmarkSketchMine(b *testing.B) {
	th := DefaultThresholds()
	for _, c := range mineBenchCases {
		b.Run("exact/"+c.name, func(b *testing.B) {
			v := mineBenchStore(b, c.rows, c.card).All()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, _, err := MineCachedContext(context.Background(), NewSupportCache(v), nil, nil, nil, th)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) == 0 {
					b.Fatal("mine found nothing")
				}
			}
		})
	}
}

// BenchmarkSketchRemine is the sliding-window shape: a window that
// grew by ten minutes re-mined against the previous window's cache, so
// the apriori passes count only the delta rows.
func BenchmarkSketchRemine(b *testing.B) {
	th := DefaultThresholds()
	base := time.Unix(0, 0).UTC()
	for _, c := range mineBenchCases {
		b.Run("exact/"+c.name, func(b *testing.B) {
			s := mineBenchStore(b, c.rows, c.card)
			v1 := s.Window(time.Time{}, base.Add(40*time.Minute))
			rows1 := v1.ShardRows()
			_, to1 := v1.Bounds()
			_, cache1, err := MineCachedContext(context.Background(), NewSupportCache(v1), nil, nil, nil, th)
			if err != nil {
				b.Fatal(err)
			}
			v2 := s.Window(time.Time{}, base.Add(50*time.Minute))
			delta, err := v2.Since(rows1, to1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := MineCachedContext(context.Background(), NewSupportCache(v2), delta, cache1, nil, th); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
