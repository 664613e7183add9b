package driftlog

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// paperExample builds the drift log of Table 2.
func paperExample() *Store {
	s := NewStore()
	day := time.Date(2020, 1, 15, 0, 0, 0, 0, time.UTC)
	add := func(hhmmss string, device, weather, location string, drift bool) {
		t, _ := time.Parse("15:04:05", hhmmss)
		s.AppendBatch([]Entry{{
			Time: day.Add(time.Duration(t.Hour())*time.Hour +
				time.Duration(t.Minute())*time.Minute + time.Duration(t.Second())*time.Second),
			Attrs: map[string]string{
				AttrDevice:   device,
				AttrWeather:  weather,
				AttrLocation: location,
			},
			Drift:    drift,
			SampleID: -1,
		}})
	}
	add("06:02:01", "android_42", "clear-day", "Helsinki", false)
	add("06:02:23", "android_21", "clear-day", "New York", false)
	add("06:04:55", "android_21", "clear-day", "New York", true) // false positive
	add("08:03:32", "android_21", "snow", "New York", true)
	add("11:05:01", "android_42", "snow", "Helsinki", true)
	return s
}

func TestAppendAndEntry(t *testing.T) {
	s := paperExample()
	if s.Len() != 5 {
		t.Fatalf("len = %d", s.Len())
	}
	e := s.Entry(3)
	if e.Attrs[AttrWeather] != "snow" || e.Attrs[AttrLocation] != "New York" || !e.Drift {
		t.Fatalf("entry 3 = %+v", e)
	}
	if e.SampleID != -1 {
		t.Fatal("sample id not preserved")
	}
}

func TestCountMatchesPaperTable3(t *testing.T) {
	s := paperExample()
	v := s.All()

	// {snow}: 2 rows, both drift (occurrence 0.4, support 2/3,
	// confidence 1 in Table 3).
	cr, err := v.Count([]Cond{{AttrWeather, "snow"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Total != 2 || cr.Drift != 2 {
		t.Fatalf("{snow} = %+v", cr)
	}

	// {New York}: 3 rows, 2 drifted.
	cr, err = v.Count([]Cond{{AttrLocation, "New York"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Total != 3 || cr.Drift != 2 {
		t.Fatalf("{New York} = %+v", cr)
	}

	// {snow, New York}: 1 row, drifted.
	cr, err = v.Count([]Cond{{AttrWeather, "snow"}, {AttrLocation, "New York"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Total != 1 || cr.Drift != 1 {
		t.Fatalf("{snow, New York} = %+v", cr)
	}
}

func TestCountUnknowns(t *testing.T) {
	s := paperExample()
	v := s.All()
	if _, err := v.Count([]Cond{{"nonexistent-attr", "x"}}, nil); err == nil {
		t.Fatal("unknown attribute should error")
	}
	cr, err := v.Count([]Cond{{AttrWeather, "hail"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Total != 0 {
		t.Fatal("unseen value should match nothing")
	}
}

func TestWindowFiltering(t *testing.T) {
	s := paperExample()
	day := time.Date(2020, 1, 15, 0, 0, 0, 0, time.UTC)
	v := s.Window(day.Add(7*time.Hour), day.Add(12*time.Hour))
	if v.Len() != 2 {
		t.Fatalf("window len = %d", v.Len())
	}
	cr, err := v.Count([]Cond{{AttrWeather, "snow"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Total != 2 || cr.Drift != 2 {
		t.Fatalf("windowed {snow} = %+v", cr)
	}
	cr, err = v.Count([]Cond{{AttrWeather, "clear-day"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Total != 0 {
		t.Fatal("clear-day entries are outside the window")
	}
}

func TestViewPinsRowCount(t *testing.T) {
	s := paperExample()
	v := s.All()
	s.AppendBatch([]Entry{{Time: time.Now(), Drift: true,
		Attrs: map[string]string{AttrWeather: "snow"}, SampleID: -1}})
	cr, err := v.Count([]Cond{{AttrWeather, "snow"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Total != 2 {
		t.Fatalf("view leaked a concurrent append: %+v", cr)
	}
}

func TestOverlayAndClearDrift(t *testing.T) {
	s := paperExample()
	v := s.All()
	overlay := v.DriftOverlay()
	n, err := v.ClearDrift([]Cond{{AttrWeather, "snow"}}, overlay)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("cleared %d, want 2", n)
	}
	// With the overlay, {New York} keeps only its false-positive drift.
	cr, err := v.Count([]Cond{{AttrLocation, "New York"}}, overlay)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Total != 3 || cr.Drift != 1 {
		t.Fatalf("overlaid {New York} = %+v", cr)
	}
	// Store itself is untouched.
	cr, _ = v.Count([]Cond{{AttrLocation, "New York"}}, nil)
	if cr.Drift != 2 {
		t.Fatal("ClearDrift mutated the store")
	}
	// Clearing again is a no-op.
	n, _ = v.ClearDrift([]Cond{{AttrWeather, "snow"}}, overlay)
	if n != 0 {
		t.Fatalf("second clear removed %d", n)
	}
}

func TestAttrValueCounts(t *testing.T) {
	s := paperExample()
	counts := s.All().AttrValueCounts(nil)
	if got := counts[AttrWeather]["snow"]; got.Total != 2 || got.Drift != 2 {
		t.Fatalf("snow counts %+v", got)
	}
	if got := counts[AttrWeather]["clear-day"]; got.Total != 3 || got.Drift != 1 {
		t.Fatalf("clear-day counts %+v", got)
	}
	if got := counts[AttrDevice]["android_21"]; got.Total != 3 || got.Drift != 2 {
		t.Fatalf("android_21 counts %+v", got)
	}
}

func TestMissingAttributeBackfill(t *testing.T) {
	s := NewStore()
	s.AppendBatch([]Entry{{Time: time.Now(), Attrs: map[string]string{"a": "1"}, SampleID: -1}})
	s.AppendBatch([]Entry{{Time: time.Now(), Attrs: map[string]string{"b": "2"}, SampleID: -1}})
	e0, e1 := s.Entry(0), s.Entry(1)
	if _, ok := e0.Attrs["b"]; ok {
		t.Fatal("row 0 should not have attr b")
	}
	if _, ok := e1.Attrs["a"]; ok {
		t.Fatal("row 1 should not have attr a")
	}
	// Counting on "a"="1" matches only row 0.
	cr, err := s.All().Count([]Cond{{"a", "1"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Total != 1 {
		t.Fatalf("backfilled count %+v", cr)
	}
}

func TestSampleIDs(t *testing.T) {
	s := NewStore()
	now := time.Now()
	for i := 0; i < 6; i++ {
		sid := int64(-1)
		if i%2 == 0 {
			sid = int64(100 + i)
		}
		s.AppendBatch([]Entry{{Time: now, Drift: true, SampleID: sid,
			Attrs: map[string]string{AttrWeather: "fog"}}})
	}
	ids, err := s.All().SampleIDs([]Cond{{AttrWeather, "fog"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 100 || ids[2] != 104 {
		t.Fatalf("sample ids %v", ids)
	}
}

func TestConcurrentIngest(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.AppendBatch([]Entry{{
					Time:     time.Now(),
					Drift:    i%2 == 0,
					SampleID: -1,
					Attrs: map[string]string{
						AttrDevice:  fmt.Sprintf("dev_%d", w),
						AttrWeather: "rain",
					},
				}})
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != workers*per {
		t.Fatalf("len = %d", s.Len())
	}
	cr, err := s.All().Count([]Cond{{AttrWeather, "rain"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Total != workers*per || cr.Drift != workers*per/2 {
		t.Fatalf("count %+v", cr)
	}
}

func TestAttributesOrder(t *testing.T) {
	s := paperExample()
	attrs := s.Attributes()
	if len(attrs) != 3 {
		t.Fatalf("attrs %v", attrs)
	}
}

func TestPairCounts(t *testing.T) {
	s := paperExample()
	pairs := s.All().PairCounts(nil, nil)
	// {snow, New York}: 1 row, drifted.
	k := PairKey{AttrA: AttrLocation, ValA: "New York", AttrB: AttrWeather, ValB: "snow"}
	if got := pairs[k]; got.Total != 1 || got.Drift != 1 {
		t.Fatalf("pair %v = %+v", k, got)
	}
	// Canonical ordering: attrs sorted, so the reversed key must not exist.
	rev := PairKey{AttrA: AttrWeather, ValA: "snow", AttrB: AttrLocation, ValB: "New York"}
	if _, ok := pairs[rev]; ok {
		t.Fatal("non-canonical pair key present")
	}
	// Every pair count must agree with a direct Count query.
	v := s.All()
	for pk, cr := range pairs {
		direct, err := v.Count(pk.Conds(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if direct != cr {
			t.Fatalf("pair %v: pair-count %+v != direct %+v", pk, cr, direct)
		}
	}
}

func TestPairCountsExcludeAndOverlay(t *testing.T) {
	s := paperExample()
	v := s.All()
	pairs := v.PairCounts(nil, map[string]bool{AttrDevice: true})
	for pk := range pairs {
		if pk.AttrA == AttrDevice || pk.AttrB == AttrDevice {
			t.Fatalf("excluded attribute in pair %v", pk)
		}
	}
	overlay := v.DriftOverlay()
	if _, err := v.ClearDrift([]Cond{{AttrWeather, "snow"}}, overlay); err != nil {
		t.Fatal(err)
	}
	pairs = v.PairCounts(overlay, nil)
	k := PairKey{AttrA: AttrLocation, ValA: "Helsinki", AttrB: AttrWeather, ValB: "snow"}
	if got := pairs[k]; got.Drift != 0 {
		t.Fatalf("overlay ignored: %+v", got)
	}
}

// Property: for any entry set, Count(nil) totals equal Len and every
// single-condition count is bounded by the total.
func TestQuickCountInvariants(t *testing.T) {
	weathers := []string{"clear-day", "rain", "snow", "fog"}
	f := func(raw []uint8) bool {
		if len(raw) > 60 {
			raw = raw[:60]
		}
		s := NewStore()
		base := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
		for i, b := range raw {
			s.AppendBatch([]Entry{{
				Time:     base.Add(time.Duration(i) * time.Minute),
				Drift:    b%2 == 0,
				SampleID: -1,
				Attrs: map[string]string{
					AttrWeather: weathers[int(b)%4],
					AttrDevice:  fmt.Sprintf("d%d", int(b/4)%3),
				},
			}})
		}
		v := s.All()
		all, err := v.Count(nil, nil)
		if err != nil || all.Total != len(raw) || all.Drift > all.Total {
			return false
		}
		if len(raw) == 0 {
			return true // no columns exist yet; nothing to partition
		}
		var sum int
		for _, w := range weathers {
			cr, err := v.Count([]Cond{{AttrWeather, w}}, nil)
			if err != nil || cr.Total > all.Total || cr.Drift > cr.Total {
				return false
			}
			sum += cr.Total
		}
		return sum == all.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsBoundsTrackAppendAndCompaction checks the row bounds Stats
// reports from per-shard state maintained at append and compaction against
// a walk of every row, through out-of-order appends, a partial compaction
// and a compaction that empties the store.
func TestStatsBoundsTrackAppendAndCompaction(t *testing.T) {
	s := randomStore(rand.New(rand.NewSource(11)), 2000) // timestamps scattered over [0s, 1000s)
	check := func(stage string) {
		t.Helper()
		var oldest, newest time.Time
		s.Each(func(_ int, e Entry) {
			if oldest.IsZero() || e.Time.Before(oldest) {
				oldest = e.Time
			}
			if e.Time.After(newest) {
				newest = e.Time
			}
		})
		unsorted := 0
		for si := range s.shards {
			sh := &s.shards[si]
			if !sort.SliceIsSorted(sh.times, func(i, j int) bool { return sh.times[i] < sh.times[j] }) {
				unsorted++
			}
		}
		st := s.Stats()
		if !st.OldestTime.Equal(oldest) || !st.NewestTime.Equal(newest) {
			t.Fatalf("%s: Stats bounds [%v, %v], rows say [%v, %v]", stage, st.OldestTime, st.NewestTime, oldest, newest)
		}
		// Sortedness is sticky (a compaction may remove the offending rows
		// without restoring the fast path), so it may only over-report.
		if st.UnsortedShards < unsorted || (stage == "appended" && st.UnsortedShards != unsorted) {
			t.Fatalf("%s: UnsortedShards %d, rows say %d", stage, st.UnsortedShards, unsorted)
		}
	}
	check("appended")
	if s.Stats().UnsortedShards == 0 {
		t.Fatal("scattered timestamps left every shard sorted")
	}
	s.Compact(time.Unix(400, 0))
	check("compacted")
	s.Compact(time.Unix(5000, 0))
	if st := s.Stats(); st.Rows != 0 || !st.OldestTime.IsZero() || !st.NewestTime.IsZero() {
		t.Fatalf("emptied store reports %+v", st)
	}
	s.AppendBatch([]Entry{{Time: time.Unix(7, 0), SampleID: -1, Attrs: map[string]string{AttrWeather: "w0"}}})
	check("refilled")
}
