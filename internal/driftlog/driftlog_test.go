package driftlog

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// TestWindowZeroFromIsUnbounded: a zero From leaves the window open below,
// so rows stamped before 1970 (negative unix nanos) are in it, as they are
// in All.
func TestWindowZeroFromIsUnbounded(t *testing.T) {
	s := NewStore()
	s.AppendBatch([]Entry{
		{Time: time.Date(1969, 7, 20, 0, 0, 0, 0, time.UTC), SampleID: -1, Attrs: map[string]string{AttrWeather: "clear"}},
		{Time: time.Date(2020, 1, 15, 0, 0, 0, 0, time.UTC), SampleID: -1, Attrs: map[string]string{AttrWeather: "snow"}},
	})
	until := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, v := range []*View{s.All(), s.Window(time.Time{}, until)} {
		if got, want := v.Len(), refLen(v); got != 2 || want != 2 {
			t.Fatalf("view over [%v, %v): Len %d, scan %d, want 2", v.from, v.to, got, want)
		}
		if cr, err := v.Count([]Cond{{AttrWeather, "clear"}}, nil); err != nil || cr.Total != 1 {
			t.Fatalf("view over [%v, %v): Count(clear) = %+v, %v", v.from, v.to, cr, err)
		}
	}
}

// TestCompactNothingExpired: a Compact whose cutoff expires no row returns 0,
// leaves the generation counter alone and touches no shard's slices — it
// allocates nothing and walks no row — while still recording the cutoff.
func TestCompactNothingExpired(t *testing.T) {
	s := randomStore(rand.New(rand.NewSource(3)), 2000) // timestamps in [0s, 1000s)
	type heads struct{ seqs, times, wmin *int64 }
	var before [numShards]heads
	for si := range s.shards {
		sh := &s.shards[si]
		if len(sh.times) > 0 {
			before[si] = heads{&sh.seqs[0], &sh.times[0], &sh.wmin[0]}
		}
	}
	gen := s.Compactions()
	for _, cutoff := range []time.Time{time.Unix(-5, 0), time.Unix(0, 0)} {
		if n := s.Compact(cutoff); n != 0 {
			t.Fatalf("Compact(%v) removed %d rows, want 0", cutoff, n)
		}
	}
	if s.Compactions() != gen {
		t.Fatalf("Compactions %d, want %d", s.Compactions(), gen)
	}
	if s.cutoff.Load() != 0 {
		t.Fatalf("recorded cutoff %d, want 0", s.cutoff.Load())
	}
	for si := range s.shards {
		sh := &s.shards[si]
		if len(sh.times) > 0 && (heads{&sh.seqs[0], &sh.times[0], &sh.wmin[0]}) != before[si] {
			t.Fatalf("shard %d: slices replaced by a Compact that expired nothing", si)
		}
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

// TestViewLookupIgnoresLaterValues: a value interned after a view pinned
// the dictionaries is in the store's dictionary but past the view's, so it
// resolves to 0 on the older view — a condition or mask naming it matches
// nothing there instead of reaching past the pinned rows — while the view's
// own values resolve as before.
func TestViewLookupIgnoresLaterValues(t *testing.T) {
	s := paperExample()
	v := s.All()
	at := time.Date(2020, 1, 15, 12, 0, 0, 0, time.UTC)
	for _, dev := range []string{"android_42", "android_21"} { // the pinned shards
		s.AppendBatch([]Entry{{Time: at, Drift: true, SampleID: -1,
			Attrs: map[string]string{AttrDevice: dev, AttrWeather: "hail", AttrLocation: "Helsinki"}}})
	}
	if s.dicts[AttrWeather].index["hail"] == 0 {
		t.Fatal("the store's dictionary does not hold hail: the test exercises nothing")
	}
	refs, _, err := v.resolve([]Cond{{AttrWeather, "hail"}, {AttrWeather, "snow"}}, nil)
	if err != nil || refs[0].ID != 0 {
		t.Fatalf("hail, interned after the view pinned, resolves to %v (%v)", refs, err)
	}
	if refs[1].ID == 0 || v.dicts[AttrWeather][refs[1].ID] != "snow" {
		t.Fatalf("snow resolves to %d", refs[1].ID)
	}
	cr, err := v.Count([]Cond{{AttrWeather, "hail"}}, nil)
	if err != nil || cr.Total != 0 {
		t.Fatalf("Count(hail) on the older view = %+v, %v", cr, err)
	}
	pairs := maskedPairs(v, nil, valueMask{
		AttrWeather:  {"hail": true, "snow": true},
		AttrLocation: {"Helsinki": true},
	})
	want := map[PairKey]CountResult{
		{AttrLocation, "Helsinki", AttrWeather, "snow"}: {Total: 1, Drift: 1},
	}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("masked pairs on the older view = %v, want %v", pairs, want)
	}
}

// TestViewLookupAcrossCompact: Compact replaces every shard column, and a
// view pinned before it keeps reading the columns it pinned, which are never
// written again — not even by appends after the compaction.
func TestViewLookupAcrossCompact(t *testing.T) {
	s := paperExample()
	v := s.All()
	if n := s.Compact(time.Date(2020, 1, 15, 8, 0, 0, 0, time.UTC)); n != 3 {
		t.Fatalf("Compact dropped %d rows, want 3", n)
	}
	s.AppendBatch([]Entry{{Time: time.Date(2020, 1, 15, 12, 0, 0, 0, time.UTC), SampleID: -1,
		Attrs: map[string]string{AttrDevice: "android_42", AttrWeather: "hail"}}})
	for _, c := range []struct {
		cond        Cond
		total, drft int
	}{
		{Cond{AttrWeather, "clear-day"}, 3, 1},
		{Cond{AttrLocation, "New York"}, 3, 2},
		{Cond{AttrWeather, "hail"}, 0, 0},
	} {
		cr, err := v.Count([]Cond{c.cond}, nil)
		if err != nil || cr.Total != c.total || cr.Drift != c.drft {
			t.Fatalf("pre-compaction view: Count(%v) = %+v, %v; want %d/%d", c.cond, cr, err, c.total, c.drft)
		}
	}
	if cr, _ := s.All().Count([]Cond{{AttrWeather, "clear-day"}}, nil); cr.Total != 0 {
		t.Fatalf("a fresh view still sees compacted rows: %+v", cr)
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
	counts := valueMap(s.All().AttrValueCounts(nil))
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
		direct, err := v.Count([]Cond{{pk.AttrA, pk.ValA}, {pk.AttrB, pk.ValB}}, nil)
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
// reports, and every shard's per-word time bounds, from state maintained at
// append and compaction against a walk of every row, through out-of-order
// appends, a partial compaction and a compaction that empties the store.
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
		st := s.Stats()
		if !st.OldestTime.Equal(oldest) || !st.NewestTime.Equal(newest) {
			t.Fatalf("%s: Stats bounds [%v, %v], rows say [%v, %v]", stage, st.OldestTime, st.NewestTime, oldest, newest)
		}
		requireWordBounds(t, s)
	}
	check("appended")
	s.Compact(time.Unix(400, 0))
	check("compacted")
	s.Compact(time.Unix(5000, 0))
	if st := s.Stats(); st.Rows != 0 || !st.OldestTime.IsZero() || !st.NewestTime.IsZero() {
		t.Fatalf("emptied store reports %+v", st)
	}
	s.AppendBatch([]Entry{{Time: time.Unix(7, 0), SampleID: -1, Attrs: map[string]string{AttrWeather: "w0"}}})
	check("refilled")
}

// requireWordBounds checks every shard's per-word time bounds against a
// walk of the rows each word covers.
func requireWordBounds(t *testing.T, s *Store) {
	t.Helper()
	for si := range s.shards {
		sh := &s.shards[si]
		if n := (len(sh.times) + 63) / 64; len(sh.wmin) != n || len(sh.wmax) != n {
			t.Fatalf("shard %d: %d rows, %d/%d word bounds", si, len(sh.times), len(sh.wmin), len(sh.wmax))
		}
		for i, ts := range sh.times {
			if w := i / 64; ts < sh.wmin[w] || ts > sh.wmax[w] {
				t.Fatalf("shard %d row %d: time %d outside word %d's bounds [%d, %d]", si, i, ts, w, sh.wmin[w], sh.wmax[w])
			}
		}
		for w := range sh.wmin {
			rows := sh.times[w*64 : min(len(sh.times), w*64+64)]
			if !slices.Contains(rows, sh.wmin[w]) || !slices.Contains(rows, sh.wmax[w]) {
				t.Fatalf("shard %d word %d: bounds [%d, %d] are not its rows' times", si, w, sh.wmin[w], sh.wmax[w])
			}
		}
	}
}

// TestRoutingCountsShardValues: the group-bys route each shard on the values
// that shard's column holds (held), not on the store-wide dictionary. Over
// 2,100 devices a shard holds about 131, so some shards sweep the device
// column and others walk it; held must equal the distinct ids among the
// view's pinned rows, before and after Compact, and a view pinned before more
// values arrive keeps its count.
func TestRoutingCountsShardValues(t *testing.T) {
	s := NewStore()
	base := time.Unix(0, 0).UTC()
	var batch []Entry
	for i := range 6000 {
		batch = append(batch, Entry{Time: base.Add(time.Duration(i) * time.Second), SampleID: -1,
			Attrs: map[string]string{AttrDevice: fmt.Sprintf("dev_%d", i%2100), AttrWeather: fmt.Sprintf("w%d", i%4)}})
	}
	s.AppendBatch(batch)
	check := func(what string, v *View) (sweep, walk int) {
		for si := range v.shards {
			vs := &v.shards[si]
			col, _ := refCol(v, vs, AttrDevice)
			distinct := map[uint32]bool{}
			for _, id := range col.ids {
				if id != 0 {
					distinct[id] = true
				}
			}
			if len(col.held) != len(distinct) {
				t.Fatalf("%s: shard %d holds %d device values, its rows carry %d", what, si, len(col.held), len(distinct))
			}
			if len(col.held) > maxValueSweep {
				walk++
			} else {
				sweep++
			}
		}
		return sweep, walk
	}
	before := s.All()
	if sweep, walk := check("fresh", before); sweep == 0 || walk == 0 {
		t.Fatalf("%d shards sweep and %d walk: want both routes taken", sweep, walk)
	}
	s.AppendBatch([]Entry{{Time: base, SampleID: -1, Attrs: map[string]string{AttrDevice: "dev_new"}}})
	s.Compact(base.Add(3000 * time.Second))
	check("pinned before the append and Compact", before)
	check("compacted", s.All())
}
