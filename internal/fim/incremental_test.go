package fim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
		resFresh, cacheFresh, err := MineCachedContext(context.Background(), NewSupportCache(v2), nil, nil, nil, th)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resInc, resFresh) {
			t.Fatalf("seed %d: incremental mine diverges from fresh\ninc   %v\nfresh %v", seed, resInc, resFresh)
		}
		if cache2 == nil {
			t.Fatalf("seed %d: incremental mine returned no cache", seed)
		}
		// Level 1 too: the same counts where the grown window's floor counts
		// a value, Uncounted where it does not.
		if !reflect.DeepEqual(cache2.level1, cacheFresh.level1) {
			t.Fatalf("seed %d: the incremental mine's level 1 diverges from the fresh mine's", seed)
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
	if maskValues(first)[driftlog.AttrWeather]["fog"] || !maskValues(second)[driftlog.AttrWeather]["fog"] {
		t.Fatalf("fog in the first mask: %v, in the second: %v; want false, true",
			maskValues(first)[driftlog.AttrWeather]["fog"], maskValues(second)[driftlog.AttrWeather]["fog"])
	}
	if maskWithin(second.mask, first.mask) {
		t.Fatal("the grown window's mask is within the cached one: the fallback was not exercised")
	}
	// The recount saw the 20 early fog rows the delta does not hold.
	k := driftlog.PairKey{AttrA: driftlog.AttrLocation, ValA: "city_2", AttrB: driftlog.AttrWeather, ValB: "fog"}
	if got, want := cachedPairs(second)[k], (driftlog.CountResult{Total: 420, Drift: 400}); got != want {
		t.Fatalf("cached {city_2, fog} = %+v, want %+v", got, want)
	}
}

// TestIncrementalMineRecountsSkippedValue: the cached mine's floor skips a
// value (fog, whose 20 rows in the store bound it under the floor), which
// the grown window's rows then carry past the floor. The cache holds no
// count of fog's first 20 rows, so the delta mine must count level 1 over
// the whole window: its results and the level 1 it caches equal a fresh
// mine's. A value that stays under the floor (haze) stays uncounted.
func TestIncrementalMineRecountsSkippedValue(t *testing.T) {
	s := synthLog(rand.New(rand.NewSource(22)), 3000)
	base := time.Unix(0, 0).UTC()
	rows := func(weather string, n int, drift bool) []driftlog.Entry {
		out := make([]driftlog.Entry, n)
		for i := range out {
			out[i] = driftlog.Entry{Time: base.Add(time.Duration(i) * time.Second), Drift: drift, SampleID: -1,
				Attrs: map[string]string{driftlog.AttrWeather: weather, driftlog.AttrLocation: "city_1"}}
		}
		return out
	}
	s.AppendBatch(append(rows("fog", 20, false), rows("haze", 5, false)...))
	th := DefaultThresholds()
	first, second := growAndMine(t, s, append(rows("fog", 400, true), rows("haze", 2, true)...), th, th)
	slot := func(mc *MineCache, val string) driftlog.CountResult {
		for _, ac := range mc.level1 {
			if ac.Name == driftlog.AttrWeather {
				return ac.Counts[slices.Index(ac.Dict, val)]
			}
		}
		t.Fatalf("no %s in level 1", driftlog.AttrWeather)
		return driftlog.CountResult{}
	}
	if got := slot(first, "fog"); got.Total != driftlog.Uncounted {
		t.Fatalf("first mine counted fog: %+v", got)
	}
	if got, want := slot(second, "fog"), (driftlog.CountResult{Total: 420, Drift: 400}); got != want {
		t.Fatalf("second mine's fog %+v, want %+v", got, want)
	}
	if got := slot(second, "haze"); got.Total != driftlog.Uncounted {
		t.Fatalf("second mine counted haze: %+v", got)
	}
	_, fresh, err := MineCachedContext(context.Background(), NewSupportCache(s.All()), nil, nil, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.level1, fresh.level1) {
		t.Fatal("the incremental mine's level 1 diverges from the fresh mine's")
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
			for k := range cachedPairs(second) {
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

// TestTieredGrownWindowMinesDelta pins that a grown window over a tiered
// attribute (one that dropped its bitmaps) is mined from the delta like any
// other: level 2 counts the delta's pairs only, and the result equals a
// fresh mine of the grown window. The delta rows carry only values that
// were frequent before, so every level-1 survivor was one when the cache
// was counted and the merge path applies.
func TestTieredGrownWindowMinesDelta(t *testing.T) {
	s := propertyLog(rand.New(rand.NewSource(4)), 4000, true)
	if tiered := s.SketchedAttrs(); !slices.Contains(tiered, "e") {
		t.Fatalf("tiered attrs %v, want e among them", tiered)
	}
	th := DefaultThresholds()
	th.MinConfidence = 0.2
	end := time.Unix(800, 0)
	v1 := s.Window(time.Time{}, end)
	_, cache1, err := MineCachedContext(context.Background(), NewSupportCache(v1), nil, nil, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	var more []driftlog.Entry
	s.Each(func(_ int, e driftlog.Entry) {
		if len(more) == 400 || !e.Time.Before(end) || len(e.Attrs) != 5 {
			return
		}
		for attr, val := range e.Attrs {
			if !maskValues(cache1)[attr][val] {
				return
			}
		}
		more = append(more, e)
	})
	s.AppendBatch(more)

	v2 := s.Window(time.Time{}, end)
	_, to1 := v1.Bounds()
	delta, err := v2.Since(v1.ShardRows(), to1)
	if err != nil {
		t.Fatal(err)
	}
	before := ReadMineStats()
	got, cache2, err := MineCachedContext(context.Background(), NewSupportCache(v2), delta, cache1, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	counted := ReadMineStats().PairsCounted - before.PairsCounted
	deltaPairs, windowPairs := maskedPairCount(delta, maskValues(cache2)), maskedPairCount(v2, maskValues(cache2))
	if counted != uint64(deltaPairs) || deltaPairs >= windowPairs {
		t.Fatalf("level 2 counted %d pairs; the delta holds %d, the window %d", counted, deltaPairs, windowPairs)
	}
	if len(maskValues(cache2)["e"]) == 0 {
		t.Fatal("no value of the tiered attribute survives level 1: the test is vacuous")
	}
	want, err := MineContext(context.Background(), v2, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || len(want) == 0 {
		t.Fatalf("delta mine %v\nfresh mine %v", got, want)
	}
}

// TestIncrementalMineDictionaryGrowth grows the dictionaries between the
// cached mine and the grown window: new values on a tiered attribute (e) and
// on one on the bitmaps (a), and an attribute (f) that only the delta rows
// carry. The merge adds the cached level-1 arrays into the delta's longer ones
// by store id, so the incremental mine equals a fresh one, in its results and
// in the level 1 it hands the next window.
func TestIncrementalMineDictionaryGrowth(t *testing.T) {
	s := propertyLog(rand.New(rand.NewSource(8)), 3000, true)
	th := DefaultThresholds()
	th.MinConfidence = 0.2
	v1 := s.All()
	_, to1 := v1.Bounds()
	_, cache1, err := MineCachedContext(context.Background(), NewSupportCache(v1), nil, nil, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	more := make([]driftlog.Entry, 600)
	for i := range more {
		more[i] = driftlog.Entry{Time: time.Unix(int64(r.Intn(1000)), 0), Drift: r.Float64() < 0.6, SampleID: -1,
			Attrs: map[string]string{"a": "a_new", "b": "b1", "e": fmt.Sprint("e_new", i%3), "f": fmt.Sprint("f", i%2)}}
	}
	s.AppendBatch(more)
	if tiered := s.SketchedAttrs(); !slices.Contains(tiered, "e") || slices.Contains(tiered, "a") {
		t.Fatalf("tiered attrs %v, want e and not a", tiered)
	}

	v2 := s.All()
	delta, err := v2.Since(v1.ShardRows(), to1)
	if err != nil {
		t.Fatal(err)
	}
	resInc, cacheInc, err := MineCachedContext(context.Background(), NewSupportCache(v2), delta, cache1, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	resFresh, cacheFresh, err := MineCachedContext(context.Background(), NewSupportCache(v2), nil, nil, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resInc, resFresh) {
		t.Fatalf("incremental mine diverges from fresh\ninc   %v\nfresh %v", resInc, resFresh)
	}
	if !reflect.DeepEqual(cacheInc.level1, cacheFresh.level1) {
		t.Fatal("the incremental mine's level 1 diverges from the fresh mine's")
	}
	dictLen := func(mc *MineCache, attr string) int {
		for _, ac := range mc.level1 {
			if ac.Name == attr {
				return len(ac.Dict)
			}
		}
		return 0
	}
	for _, attr := range []string{"a", "e", "f"} {
		if before, after := dictLen(cache1, attr), dictLen(cacheInc, attr); before >= after {
			t.Fatalf("attribute %s: dictionary of %d values, then %d: it did not grow", attr, before, after)
		}
	}
	if mask := maskValues(cacheInc); !mask["e"]["e_new0"] || !mask["a"]["a_new"] || !mask["f"]["f0"] {
		t.Fatalf("a new value misses level 1: mask %v", mask)
	}
}

// maskValues is a cache's level-1 survivors by attribute and value, each
// packed survivor resolved through the cache's level-1 dictionaries.
func maskValues(mc *MineCache) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, x := range mc.mask {
		attr, val := cachedValue(mc, x)
		if out[attr] == nil {
			out[attr] = map[string]bool{}
		}
		out[attr][val] = true
	}
	return out
}

// cachedPairs is a cache's pair counts keyed by PairKey.
func cachedPairs(mc *MineCache) map[driftlog.PairKey]driftlog.CountResult {
	out := map[driftlog.PairKey]driftlog.CountResult{}
	for k, cr := range mc.pairs {
		a, va := cachedValue(mc, k[0])
		b, vb := cachedValue(mc, k[1])
		out[driftlog.PairKey{AttrA: a, ValA: va, AttrB: b, ValB: vb}] = cr
	}
	return out
}

// cachedValue resolves a packed value through the cache's level 1.
func cachedValue(mc *MineCache, x uint64) (attr, val string) {
	for _, ac := range mc.level1 {
		if uint64(ac.Pos) == x>>32 {
			return ac.Name, ac.Dict[uint32(x)]
		}
	}
	panic(fmt.Sprintf("packed value %#x: no attribute at its position", x))
}

// maskedPairCount is the number of pairs the view holds of values in mask.
func maskedPairCount(v *driftlog.View, mask map[string]map[string]bool) int {
	n := 0
	for k := range v.PairCounts(nil, nil) {
		if mask[k.AttrA][k.ValA] && mask[k.AttrB][k.ValB] {
			n++
		}
	}
	return n
}

// maskWithin reports whether every value of mask is also in cached (both
// ascending): the rule countPairs merges a delta's pairs under.
func maskWithin(mask, cached []uint64) bool {
	return !slices.ContainsFunc(mask, func(x uint64) bool { _, ok := slices.BinarySearch(cached, x); return !ok })
}
