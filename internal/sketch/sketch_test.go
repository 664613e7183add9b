package sketch

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestCountMinOneSided(t *testing.T) {
	cm := NewCountMin(1024, 3, 42)
	exact := map[string][2]uint32{}
	rng := rand.New(rand.NewSource(7))
	var n uint64
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(5000))
		drifted := rng.Intn(3) == 0
		cm.Add(key, drifted)
		e := exact[key]
		e[0]++
		if drifted {
			e[1]++
		}
		exact[key] = e
		n++
	}
	bound := cm.ErrBound(n)
	for key, want := range exact {
		got := cm.Estimate(key)
		if got.Total < want[0] {
			t.Fatalf("Estimate(%q).Total = %d < exact %d (must be one-sided)", key, got.Total, want[0])
		}
		if got.Drift < want[1] {
			t.Fatalf("Estimate(%q).Drift = %d < exact %d (must be one-sided)", key, got.Drift, want[1])
		}
		if uint64(got.Total-want[0]) > bound {
			t.Fatalf("Estimate(%q).Total = %d exceeds exact %d by more than bound %d", key, got.Total, want[0], bound)
		}
		if got.Drift > got.Total {
			t.Fatalf("Estimate(%q): drift %d > total %d", key, got.Drift, got.Total)
		}
	}
}

func TestCountMinOrderIndependent(t *testing.T) {
	keys := make([]string, 0, 3000)
	for i := 0; i < 3000; i++ {
		keys = append(keys, fmt.Sprintf("key-%d", i%700))
	}
	a := NewCountMin(256, 3, 99)
	for _, k := range keys {
		a.Add(k, len(k)%2 == 0)
	}
	b := NewCountMin(256, 3, 99)
	for i := len(keys) - 1; i >= 0; i-- {
		b.Add(keys[i], len(keys[i])%2 == 0)
	}
	if !reflect.DeepEqual(a.rows, b.rows) {
		t.Fatal("counter arrays differ between insertion orders; adds must commute")
	}
}

func TestCountMinMerge(t *testing.T) {
	full := NewCountMin(128, 3, 5)
	a := NewCountMin(128, 3, 5)
	b := NewCountMin(128, 3, 5)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("m%d", i%90)
		full.Add(k, i%4 == 0)
		if i%2 == 0 {
			a.Add(k, i%4 == 0)
		} else {
			b.Add(k, i%4 == 0)
		}
	}
	a.Merge(b)
	if !reflect.DeepEqual(a.rows, full.rows) {
		t.Fatal("merged sketch differs from single-stream sketch")
	}
}

// TestCountMinAddCountsLinear pins that one AddCounts of a key's batch
// multiplicity leaves the same cells as that many single Adds.
func TestCountMinAddCountsLinear(t *testing.T) {
	one, grouped := NewCountMin(64, 4, 9), NewCountMin(64, 4, 9)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(300))
		total, drift := uint32(rng.Intn(6)), uint32(0)
		for j := uint32(0); j < total; j++ {
			drifted := rng.Intn(3) == 0
			one.Add(key, drifted)
			if drifted {
				drift++
			}
		}
		grouped.AddCounts(key, total, drift)
	}
	if !one.Equal(grouped) {
		t.Fatal("AddCounts cells differ from single Adds")
	}
	grouped.AddCounts("k0", 1, 1)
	if one.Equal(grouped) || one.Equal(NewCountMin(64, 4, 10)) {
		t.Fatal("Equal misses a differing cell or seed")
	}
}

// TestCountMinHashOnce pins the hash-once probe: a key hashed by one sketch
// estimates, on every sketch sharing its seed — whatever its width, depth
// and contents — exactly what that sketch's Estimate returns.
func TestCountMinHashOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ring := []*CountMin{NewCountMin(64, 3, 11), NewCountMin(64, 3, 11), NewCountMin(257, 5, 11), NewCountMin(8, 1, 11)}
	for _, cm := range ring {
		for i := 0; i < 500; i++ {
			cm.AddCounts(fmt.Sprintf("k%d", rng.Intn(400)), uint32(1+rng.Intn(4)), uint32(rng.Intn(2)))
		}
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(800))
		h := ring[0].Hash(key)
		for j, cm := range ring {
			if got, want := cm.EstimateHash(h), cm.Estimate(key); got != want {
				t.Fatalf("key %s sketch %d: EstimateHash %+v, Estimate %+v", key, j, got, want)
			}
		}
	}
}

func TestCountMinMergeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on geometry mismatch")
		}
	}()
	NewCountMin(128, 3, 5).Merge(NewCountMin(64, 3, 5))
}

func TestCountMinConcurrent(t *testing.T) {
	cm := NewCountMin(512, 3, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				cm.Add(fmt.Sprintf("c%d", i%50), i%2 == 0)
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for i := 0; i < 50; i++ {
		total += uint64(cm.Estimate(fmt.Sprintf("c%d", i)).Total)
	}
	if total < 8000 {
		t.Fatalf("concurrent adds lost increments: total %d < 8000", total)
	}
}

func TestSpaceSavingGuarantee(t *testing.T) {
	// Frequency guarantee: every key with true count > N/k must be tracked.
	ss := NewSpaceSaving[string](64)
	exact := map[string]uint64{}
	rng := rand.New(rand.NewSource(3))
	var n uint64
	for i := 0; i < 50000; i++ {
		var key string
		if rng.Intn(10) < 6 {
			key = fmt.Sprintf("hot%d", rng.Intn(10))
		} else {
			key = fmt.Sprintf("cold%d", rng.Intn(20000))
		}
		ss.Offer(key, 1)
		exact[key]++
		n++
	}
	tracked := map[string]HeavyHitter[string]{}
	for _, hh := range ss.Items() {
		tracked[hh.Key] = hh
	}
	thresh := n / uint64(ss.Cap())
	for key, cnt := range exact {
		if cnt <= thresh {
			continue
		}
		hh, ok := tracked[key]
		if !ok {
			t.Fatalf("key %q with count %d > N/k=%d missing from summary", key, cnt, thresh)
		}
		if hh.Count < cnt {
			t.Fatalf("key %q reported count %d < true %d (must overestimate)", key, hh.Count, cnt)
		}
		if hh.Count-hh.Err > cnt {
			t.Fatalf("key %q count-err %d exceeds true %d", key, hh.Count-hh.Err, cnt)
		}
	}
}

// TestSpaceSavingMatchesReference drives the slot heap and the map-swapping
// reference (ssref_test.go) with the same random offer streams — few keys
// (heavy count ties), many keys (constant eviction), long shared key
// prefixes (ties broken deep inside the key), weighted offers and OfferEach
// runs — and requires equal Items(), Err included, all along the stream;
// at the end the Space-Saving guarantees are checked against exact counts.
func TestSpaceSavingMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 256} {
		for _, universe := range []int{3, 40, 5000} {
			t.Run(fmt.Sprintf("cap=%d/keys=%d", capacity, universe), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(capacity*7919 + universe)))
				ss, ref := NewSpaceSaving[string](capacity), newRefSpaceSaving[string](capacity)
				exact := map[string]uint64{}
				var n uint64
				key := func() string {
					return fmt.Sprintf("app_version\x00a_%d\x00device\x00dev_%04d", rng.Intn(3), rng.Intn(universe))
				}
				for step := 0; step < 400; step++ {
					switch rng.Intn(3) {
					case 0: // one plain offer
						k := key()
						ss.Offer(k, 1)
						ref.Offer(k, 1)
						exact[k]++
						n++
					case 1: // weighted, zero weight included (a no-op)
						k, w := key(), uint64(rng.Intn(5))
						ss.Offer(k, w)
						ref.Offer(k, w)
						exact[k] += w
						n += w
					default: // a batch under one lock
						keys := make([]string, rng.Intn(40))
						for i := range keys {
							keys[i] = key()
							ref.Offer(keys[i], 1)
							exact[keys[i]]++
							n++
						}
						ss.OfferEach(keys)
					}
					if step%16 == 0 || step == 399 {
						if got, want := ss.Items(), ref.Items(); !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d: Items diverge from the reference\n got %v\nwant %v", step, got, want)
						}
					}
				}
				if got := ss.Len(); got != min(capacity, len(exact)) {
					t.Fatalf("Len %d, want %d", got, min(capacity, len(exact)))
				}
				tracked := map[string]HeavyHitter[string]{}
				for _, hh := range ss.Items() {
					tracked[hh.Key] = hh
					if c := exact[hh.Key]; hh.Count < c || hh.Count-hh.Err > c {
						t.Fatalf("key %q: count %d err %d does not bracket true %d", hh.Key, hh.Count, hh.Err, c)
					}
				}
				for k, c := range exact {
					if _, ok := tracked[k]; !ok && c > n/uint64(capacity) {
						t.Fatalf("key %q with count %d > N/k=%d missing from summary", k, c, n/uint64(capacity))
					}
				}
			})
		}
	}
}

func TestSpaceSavingDeterministic(t *testing.T) {
	offers := make([]string, 0, 5000)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		offers = append(offers, fmt.Sprintf("v%d", rng.Intn(400)))
	}
	run := func() []HeavyHitter[string] {
		ss := NewSpaceSaving[string](32)
		for _, k := range offers {
			ss.Offer(k, 1)
		}
		return ss.Items()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical offer sequences produced different summaries")
	}
}

func TestSpaceSavingItemsSorted(t *testing.T) {
	ss := NewSpaceSaving[string](16)
	for i := 0; i < 100; i++ {
		ss.Offer(fmt.Sprintf("s%d", i%7), uint64(1+i%3))
	}
	items := ss.Items()
	for i := 1; i < len(items); i++ {
		if items[i-1].Count < items[i].Count {
			t.Fatalf("Items not sorted by count desc at %d", i)
		}
		if items[i-1].Count == items[i].Count && items[i-1].Key >= items[i].Key {
			t.Fatalf("Items tie not broken by key asc at %d", i)
		}
	}
}

func TestErrBound(t *testing.T) {
	if got := ErrBound(1024, 0); got != 0 {
		t.Fatalf("ErrBound(1024, 0) = %d, want 0", got)
	}
	if got := ErrBound(1024, 1024); got < 2 || got > 3 {
		t.Fatalf("ErrBound(1024, 1024) = %d, want ~e", got)
	}
}

// BenchmarkSpaceSavingOffer is the pair ring's Space-Saving at its shipped
// capacity over keys shaped like pair keys (long shared prefixes, so count
// ties are broken deep inside the key): hit re-offers tracked keys, churn
// offers only new ones, each evicting the minimum.
func BenchmarkSpaceSavingOffer(b *testing.B) {
	const k = 2048
	key := func(i int) string {
		return fmt.Sprintf("app_version\x00a_%d\x00device\x00dev_%06d", i%16, i)
	}
	warm := func() *SpaceSaving[string] {
		ss := NewSpaceSaving[string](k)
		for i := 0; i < 4*k; i++ {
			ss.Offer(key(i), 1)
		}
		return ss
	}
	b.Run("hit", func(b *testing.B) {
		ss := warm()
		keys := make([]string, k)
		for i, hh := range ss.Items() {
			keys[i] = hh.Key
		}
		rng := rand.New(rand.NewSource(1))
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ss.Offer(keys[i%k], 1)
		}
	})
	b.Run("churn", func(b *testing.B) {
		ss := warm()
		keys := make([]string, 1<<16)
		for i := range keys {
			keys[i] = key(4*k + i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(keys) == 0 && i > 0 {
				b.StopTimer()
				base := 4*k + i
				for j := range keys {
					keys[j] = key(base + j)
				}
				b.StartTimer()
			}
			ss.Offer(keys[i%len(keys)], 1)
		}
	})
}
