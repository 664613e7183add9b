package fim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"nazar/internal/driftlog"
)

// TestSupportCacheLRU pins the eviction mechanics: capacity is enforced,
// the cold end goes first, and touching an entry protects it.
func TestSupportCacheLRU(t *testing.T) {
	s := synthLog(rand.New(rand.NewSource(1)), 100)
	sc := NewSupportCacheSize(s.All(), 2)
	k := func(name string) supportCacheKey { return supportCacheKey{items: name} }
	cr := func(n int) driftlog.CountResult { return driftlog.CountResult{Total: n} }

	before := ReadSupportCacheStats().Evictions
	sc.put(k("a"), cr(1))
	sc.put(k("b"), cr(2))
	if _, ok := sc.get(k("a")); !ok { // touch a: b is now coldest
		t.Fatal("a missing before eviction")
	}
	sc.put(k("c"), cr(3))
	if sc.resident() != 2 {
		t.Fatalf("resident = %d, want 2", sc.resident())
	}
	if _, ok := sc.get(k("b")); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	if got, ok := sc.get(k("a")); !ok || got.Total != 1 {
		t.Fatalf("recently-used a evicted (ok=%v got=%+v)", ok, got)
	}
	if got := ReadSupportCacheStats().Evictions - before; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	// Refreshing a resident key must not evict.
	sc.put(k("a"), cr(9))
	if sc.resident() != 2 {
		t.Fatalf("resident after refresh = %d, want 2", sc.resident())
	}
	if got, _ := sc.get(k("a")); got.Total != 9 {
		t.Fatalf("refresh not applied: %+v", got)
	}
}

// TestSupportCacheEvictionCorrectness runs the full mining pipeline
// through a pathologically tiny memo and requires byte-identical
// results: eviction may cost recounts, never correctness.
func TestSupportCacheEvictionCorrectness(t *testing.T) {
	th := DefaultThresholds()
	for seed := int64(0); seed < 4; seed++ {
		s := synthLog(rand.New(rand.NewSource(seed)), 2500)
		v := s.All()
		small := NewSupportCacheSize(v, 3)
		resSmall, _, err := MineCachedContext(context.Background(), small, nil, nil, nil, th)
		if err != nil {
			t.Fatal(err)
		}
		resBig, _, err := MineCachedContext(context.Background(), NewSupportCache(v), nil, nil, nil, th)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resSmall, resBig) {
			t.Fatalf("seed %d: tiny-cap mine diverges from unconstrained mine\nsmall %v\nbig   %v",
				seed, resSmall, resBig)
		}
		if small.resident() > 3 {
			t.Fatalf("seed %d: resident %d exceeds cap 3", seed, small.resident())
		}
	}
}

// TestMineCacheBound shrinks the cross-window retention budget and
// checks the refuse-to-store contract: an over-budget cache drops every
// count map (a partial cache would silently undercount on merge) and
// the next window simply mines fresh, still correctly.
func TestMineCacheBound(t *testing.T) {
	saved := mineCacheMaxEntries
	mineCacheMaxEntries = 4
	defer func() { mineCacheMaxEntries = saved }()

	th := DefaultThresholds()
	s := synthLog(rand.New(rand.NewSource(5)), 3000)
	v1 := s.All()
	prevRows := v1.ShardRows()
	_, prevTo := v1.Bounds()

	before := MineCacheRefusals()
	_, cache1, err := MineCachedContext(context.Background(), NewSupportCache(v1), nil, nil, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	if MineCacheRefusals() == before {
		t.Fatal("over-budget cache was not refused")
	}
	if cache1.Size() != 0 {
		t.Fatalf("refused cache retains %d entries, want 0", cache1.Size())
	}
	if cache1.complete {
		t.Fatal("refused cache still marked complete")
	}

	// The emptied cache must degrade to a fresh mine, not a wrong one.
	s.AppendBatch([]driftlog.Entry{{
		Time: time.Unix(2000, 0).UTC(), Drift: true, SampleID: -1,
		Attrs: map[string]string{driftlog.AttrWeather: "snow", driftlog.AttrLocation: "city_1"},
	}})
	v2 := s.All()
	delta, err := v2.Since(prevRows, prevTo)
	if err != nil {
		t.Fatal(err)
	}
	resInc, _, err := MineCachedContext(context.Background(), NewSupportCache(v2), delta, cache1, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	resFresh, _, err := MineCachedContext(context.Background(), NewSupportCache(v2), nil, nil, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resInc, resFresh) {
		t.Fatalf("mine after refusal diverges from fresh\ninc   %v\nfresh %v", resInc, resFresh)
	}
}

// resident returns the resident entry count (always <= the construction cap).
func (sc *SupportCache) resident() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.m)
}
