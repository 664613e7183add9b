package fim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"nazar/internal/driftlog"
)

// synthLog builds a drifting log with enough attribute structure for
// multi-level itemsets to pass the default thresholds.
func synthLog(r *rand.Rand, n int) *driftlog.Store {
	s := driftlog.NewStore()
	base := time.Unix(0, 0).UTC()
	var batch []driftlog.Entry
	for i := 0; i < n; i++ {
		weather := []string{"clear-day", "rain", "snow"}[r.Intn(3)]
		loc := fmt.Sprintf("city_%d", r.Intn(4))
		// Correlated drift: snow drifts hard, snow+city_1 harder.
		p := 0.05
		if weather == "snow" {
			p = 0.6
			if loc == "city_1" {
				p = 0.9
			}
		}
		batch = append(batch, driftlog.Entry{
			Time:     base.Add(time.Duration(r.Intn(1000)) * time.Second),
			Drift:    r.Float64() < p,
			SampleID: -1,
			Attrs: map[string]string{
				driftlog.AttrWeather:  weather,
				driftlog.AttrLocation: loc,
				driftlog.AttrDevice:   fmt.Sprintf("dev_%d", r.Intn(6)),
			},
		})
	}
	s.AppendBatch(batch)
	return s
}

// TestIncrementalMineMatchesFresh grows a log in stages and requires
// the cache-carried incremental mine to return exactly what a fresh
// full mine over the same window returns — results, order, and metrics.
func TestIncrementalMineMatchesFresh(t *testing.T) {
	th := DefaultThresholds()
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := synthLog(r, 3000)

		v1 := s.All()
		prevRows := v1.ShardRows()
		_, prevTo := v1.Bounds()
		sc1 := NewSupportCache(v1)
		res1, cache1, err := MineCachedContext(context.Background(), sc1, nil, nil, nil, th)
		if err != nil {
			t.Fatal(err)
		}
		if plain, err := MineContext(context.Background(), v1, nil, th); err != nil || !reflect.DeepEqual(res1, plain) {
			t.Fatalf("seed %d: cached fresh mine diverges from Mine (err %v)", seed, err)
		}

		// Grow the log; mine the grown window incrementally and fresh.
		var more []driftlog.Entry
		base := time.Unix(0, 0).UTC()
		r2 := rand.New(rand.NewSource(seed + 100))
		for i := 0; i < 1200; i++ {
			weather := []string{"clear-day", "rain", "snow"}[r2.Intn(3)]
			more = append(more, driftlog.Entry{
				Time:     base.Add(time.Duration(r2.Intn(1000)) * time.Second),
				Drift:    weather == "snow" && r2.Float64() < 0.7,
				SampleID: -1,
				Attrs: map[string]string{
					driftlog.AttrWeather:  weather,
					driftlog.AttrLocation: fmt.Sprintf("city_%d", r2.Intn(4)),
				},
			})
		}
		s.AppendBatch(more)

		v2 := s.All()
		delta, err := v2.Since(prevRows, prevTo)
		if err != nil {
			t.Fatal(err)
		}
		resInc, cache2, err := MineCachedContext(context.Background(), NewSupportCache(v2), delta, cache1, nil, th)
		if err != nil {
			t.Fatal(err)
		}
		resFresh, _, err := MineCachedContext(context.Background(), NewSupportCache(v2), nil, nil, nil, th)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resInc, resFresh) {
			t.Fatalf("seed %d: incremental mine diverges from fresh\ninc   %v\nfresh %v", seed, resInc, resFresh)
		}
		if cache2 == nil {
			t.Fatalf("seed %d: incremental mine returned no cache", seed)
		}

		// A second incremental pass over an unchanged window (empty
		// delta) must again be identical.
		v3 := s.All()
		_, to3 := v3.Bounds()
		empty, err := v3.Since(v2.ShardRows(), to3)
		if err != nil {
			t.Fatal(err)
		}
		resAgain, _, err := MineCachedContext(context.Background(), NewSupportCache(v3), empty, cache2, nil, th)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resAgain, resFresh) {
			t.Fatalf("seed %d: empty-delta re-mine diverges from fresh", seed)
		}
	}
}

// growAndMine mines s whole under th1, appends more, and mines the grown
// log through the first mine's cache under th2. It returns the two caches
// and requires the incremental results to equal a fresh mine's.
func growAndMine(t *testing.T, s *driftlog.Store, more []driftlog.Entry, th1, th2 Thresholds) (first, second *MineCache) {
	t.Helper()
	v1 := s.All()
	prevRows := v1.ShardRows()
	_, prevTo := v1.Bounds()
	_, first, err := MineCachedContext(context.Background(), NewSupportCache(v1), nil, nil, nil, th1)
	if err != nil {
		t.Fatal(err)
	}
	s.AppendBatch(more)
	v2 := s.All()
	delta, err := v2.Since(prevRows, prevTo)
	if err != nil {
		t.Fatal(err)
	}
	resInc, second, err := MineCachedContext(context.Background(), NewSupportCache(v2), delta, first, nil, th2)
	if err != nil {
		t.Fatal(err)
	}
	resFresh, err := MineContext(context.Background(), v2, nil, th2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resInc, resFresh) {
		t.Fatalf("incremental mine diverges from fresh\ninc   %v\nfresh %v", resInc, resFresh)
	}
	return first, second
}

// TestIncrementalMineNewlyFrequentValue: a value too rare for the first
// window's mask becomes frequent in the delta. The cached pairs never held
// it, so merging would count its pairs from the delta rows alone; the mine
// must notice (the new mask is not within the cached one) and recount.
func TestIncrementalMineNewlyFrequentValue(t *testing.T) {
	s := synthLog(rand.New(rand.NewSource(21)), 3000)
	base := time.Unix(0, 0).UTC()
	fog := func(n int, drift bool) []driftlog.Entry {
		out := make([]driftlog.Entry, n)
		for i := range out {
			out[i] = driftlog.Entry{Time: base.Add(time.Duration(i) * time.Second), Drift: drift, SampleID: -1,
				Attrs: map[string]string{driftlog.AttrWeather: "fog", driftlog.AttrLocation: "city_2", driftlog.AttrDevice: "dev_1"}}
		}
		return out
	}
	s.AppendBatch(fog(20, false)) // 0.66% of the first window: under MinOccurrence
	th := DefaultThresholds()
	first, second := growAndMine(t, s, fog(400, true), th, th)
	if first.mask[driftlog.AttrWeather]["fog"] || !second.mask[driftlog.AttrWeather]["fog"] {
		t.Fatalf("fog in the first mask: %v, in the second: %v; want false, true",
			first.mask[driftlog.AttrWeather]["fog"], second.mask[driftlog.AttrWeather]["fog"])
	}
	if maskWithin(second.mask, first.mask) {
		t.Fatal("the grown window's mask is within the cached one: the fallback was not exercised")
	}
	// The recount saw the 20 early fog rows the delta does not hold.
	k := driftlog.PairKey{AttrA: driftlog.AttrLocation, ValA: "city_2", AttrB: driftlog.AttrWeather, ValB: "fog"}
	if got, want := second.pairs[k], (driftlog.CountResult{Total: 420, Drift: 400}); got != want {
		t.Fatalf("cached {city_2, fog} = %+v, want %+v", got, want)
	}
}

// TestIncrementalMineExcludeAttrsChange: the exclusion list differs between
// the two windows sharing a cache. Excluding more shrinks the mask (the
// merge drops the cached pairs it no longer keeps); excluding less grows it
// (the cached pairs never covered the attribute: recount).
func TestIncrementalMineExcludeAttrsChange(t *testing.T) {
	noDevice := DefaultThresholds()
	noDevice.ExcludeAttrs = []string{driftlog.AttrDevice}
	for _, tc := range []struct {
		name     string
		th1, th2 Thresholds
		within   bool
	}{
		{"exclude-more", DefaultThresholds(), noDevice, true},
		{"exclude-less", noDevice, DefaultThresholds(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := synthLog(rand.New(rand.NewSource(31)), 3000)
			more := synthLog(rand.New(rand.NewSource(32)), 800)
			var batch []driftlog.Entry
			more.Each(func(_ int, e driftlog.Entry) { batch = append(batch, e) })
			first, second := growAndMine(t, s, batch, tc.th1, tc.th2)
			if got := maskWithin(second.mask, first.mask); got != tc.within {
				t.Fatalf("second mask within first = %v, want %v", got, tc.within)
			}
			for k := range second.pairs {
				if tc.th2.ExcludeAttrs != nil && (k.AttrA == driftlog.AttrDevice || k.AttrB == driftlog.AttrDevice) {
					t.Fatalf("excluded attribute survives in the cache: %+v", k)
				}
			}
		})
	}
}

// TestIncrementalMineWithOverlayFallsBack: an overlay forces a full
// mine (counterfactual counts cannot be cached across windows), and no
// cache may be produced under one.
func TestIncrementalMineWithOverlayFallsBack(t *testing.T) {
	s := synthLog(rand.New(rand.NewSource(9)), 2000)
	v := s.All()
	ov := v.DriftOverlay()
	defer ov.Release()
	res, cache, err := MineCachedContext(context.Background(), NewSupportCache(v), nil, nil, ov, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if cache != nil {
		t.Fatal("mining under an overlay must not produce a reusable cache")
	}
	plain, err := MineContext(context.Background(), v, nil, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Fatal("overlay mine with untouched overlay diverges from plain mine")
	}
}

// TestSupportCacheMemoizes: repeated rescores of one itemset under one
// epoch hit the memo instead of recounting.
func TestSupportCacheMemoizes(t *testing.T) {
	s := synthLog(rand.New(rand.NewSource(3)), 1000)
	v := s.All()
	sc := NewSupportCache(v)
	set := NewItemset(driftlog.Cond{Attr: driftlog.AttrWeather, Value: "snow"})
	before := ReadSupportCacheStats()
	r1, err := RescoreCached(sc, set, nil)
	if err != nil {
		t.Fatal(err)
	}
	mid := ReadSupportCacheStats()
	r2, err := RescoreCached(sc, set, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := ReadSupportCacheStats()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("memoized rescore diverges")
	}
	if after.Misses != mid.Misses {
		t.Fatalf("second rescore recounted: misses %d -> %d", mid.Misses, after.Misses)
	}
	if after.Hits <= before.Hits {
		t.Fatal("second rescore did not hit the memo")
	}

	// A mutating clear advances the epoch: stale entries must not serve.
	ov := v.DriftOverlay()
	defer ov.Release()
	if _, err := v.ClearDrift(set, ov); err != nil {
		t.Fatal(err)
	}
	r3, err := RescoreCached(sc, set, ov)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Metrics.Support == r1.Metrics.Support && r1.Metrics.Support != 0 {
		t.Fatal("post-clear rescore served the pre-clear support")
	}
}
