package driftlog

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"nazar/internal/tensor"
)

// sketchTestConfig is the tier-up threshold the tier tests run with: low
// enough that the high-cardinality attribute tiers mid-ingest.
func sketchTestConfig() SketchConfig { return SketchConfig{Threshold: 16} }

// untiered is a threshold no test log reaches: every column keeps its
// bitmaps.
var untiered = SketchConfig{Threshold: 1 << 30}

// sketchStore builds a log with one high-cardinality attribute
// (app_version: ~vers distinct values, the first ten hot) alongside the
// usual low-cardinality ones, via mixed Append/AppendBatch ingest with
// scattered timestamps and randomly missing attributes.
func sketchStore(r *rand.Rand, n, vers int, cfg SketchConfig) *Store {
	s := NewStoreWithSketch(cfg)
	base := time.Unix(0, 0).UTC()
	var batch []Entry
	for i := 0; i < n; i++ {
		attrs := map[string]string{}
		if r.Float64() < 0.95 {
			attrs[AttrWeather] = fmt.Sprintf("w%d", r.Intn(6))
		}
		if r.Float64() < 0.9 {
			attrs[AttrLocation] = fmt.Sprintf("city_%d", r.Intn(9))
		}
		if r.Float64() < 0.9 {
			v := r.Intn(vers)
			if r.Float64() < 0.6 {
				v = r.Intn(10) // hot set
			}
			attrs["app_version"] = fmt.Sprintf("1.%d", v)
		}
		e := Entry{
			Time:     base.Add(time.Duration(r.Intn(1000)) * time.Second),
			Drift:    r.Float64() < 0.3,
			SampleID: -1,
			Attrs:    attrs,
		}
		if r.Float64() < 0.5 {
			s.AppendBatch([]Entry{e})
		} else {
			batch = append(batch, e)
		}
	}
	s.AppendBatch(batch)
	return s
}

// sketchWindows are the window shapes the tier tests probe: unbounded,
// middle slices with round and ragged bounds, a thin slice and an empty
// slice past the data.
func sketchWindows() [][2]time.Time {
	base := time.Unix(0, 0).UTC()
	return [][2]time.Time{
		{{}, {}},
		{base.Add(200 * time.Second), base.Add(700 * time.Second)},
		{base.Add(250 * time.Second), base.Add(707 * time.Second)},
		{base.Add(33 * time.Second), base.Add(41 * time.Second)},
		{base.Add(5000 * time.Second), base.Add(6000 * time.Second)},
	}
}

// tierConds are the predicates on and around the tiered attribute.
func tierConds() [][]Cond {
	return [][]Cond{
		{{"app_version", "1.3"}},
		{{"app_version", "1.7"}, {AttrWeather, "w1"}},
		{{"app_version", "1.150"}},
		{{"app_version", "no-such-version"}},
		{{"app_version", "1.0"}, {AttrLocation, "city_2"}, {AttrWeather, "w0"}},
		{{AttrWeather, "w1"}, {AttrLocation, "city_2"}},
	}
}

// viewAnswers renders everything a view answers — Count per condition set,
// the value and pair group-bys, and the pair group-by under a few masks — as
// sorted lines, so two views of different stores over the same rows can be
// compared whatever their shard layout.
func viewAnswers(t *testing.T, v *View, conds [][]Cond) []string {
	t.Helper()
	var lines []string
	for _, c := range conds {
		cr, err := v.Count(c, nil)
		lines = append(lines, fmt.Sprintf("count %v %+v %v", c, cr, err != nil))
	}
	for attr, byVal := range valueMap(v.AttrValueCounts(nil)) {
		for val, cr := range byVal {
			lines = append(lines, fmt.Sprintf("value %s=%s %+v", attr, val, cr))
		}
	}
	pairs := func(what string, m map[PairKey]CountResult) {
		for k, cr := range m {
			lines = append(lines, fmt.Sprintf("%s %+v %+v", what, k, cr))
		}
	}
	pairs("pair", v.PairCounts(nil, nil))
	for _, sel := range []uint8{0x55, 0xFF} {
		pairs(fmt.Sprintf("masked %#x", sel), maskedPairs(v, nil, maskFromBits(v, sel)))
	}
	sort.Strings(lines)
	return lines
}

// requireSameAnswers requires two views to answer everything alike.
func requireSameAnswers(t *testing.T, what string, got, want *View, conds [][]Cond) {
	t.Helper()
	g, w := viewAnswers(t, got, conds), viewAnswers(t, want, conds)
	if !reflect.DeepEqual(g, w) {
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("%s: %d answers, want %d; first difference:\n got %s\nwant %s", what, len(g), len(w), g[i], w[i])
			}
		}
		t.Fatalf("%s: %d answers, want %d", what, len(g), len(w))
	}
}

// requireNoBits requires every shard column of attr to hold no bitmap.
func requireNoBits(t *testing.T, s *Store, attr string) {
	t.Helper()
	for si := range s.shards {
		if col := s.shards[si].cols[attr]; col != nil && (!col.tiered || col.bits != nil) {
			t.Fatalf("shard %d: %s column tiered=%v with %d bitmap slots", si, attr, col.tiered, len(col.bits))
		}
	}
}

// TestSketchTierUp pins the tiering mechanics: the high-cardinality
// attribute tiers (sticky) and drops its bitmaps, the low-cardinality
// attributes keep theirs, and every query answers exactly what an untiered
// twin store over the same rows answers.
func TestSketchTierUp(t *testing.T) {
	s := sketchStore(rand.New(rand.NewSource(1)), 3000, 300, sketchTestConfig())
	if got := s.SketchedAttrs(); len(got) != 1 || got[0] != "app_version" {
		t.Fatalf("SketchedAttrs = %v, want [app_version]", got)
	}
	requireNoBits(t, s, "app_version")
	st := s.Stats()
	if st.SketchAttrs != 1 || st.SketchBytes != 0 {
		t.Fatalf("tier stats %+v, want one tiered attribute and no sketch bytes", st)
	}
	twin := sketchStore(rand.New(rand.NewSource(1)), 3000, 300, untiered)
	if n := len(twin.SketchedAttrs()); n != 0 {
		t.Fatalf("twin store tiered %d attrs", n)
	}
	// app_version's ~300 bitmaps per shard are gone.
	if st.IndexWords >= twin.Stats().IndexWords {
		t.Fatalf("tiered store index words %d not below the twin's %d", st.IndexWords, twin.Stats().IndexWords)
	}
	conds := append(tierConds(), diffConds()...)
	for _, w := range sketchWindows() {
		requireSameAnswers(t, fmt.Sprint("window ", w), s.Window(w[0], w[1]), twin.Window(w[0], w[1]), conds)
	}
}

// TestSketchDifferentialBound holds the tiered store to the scan oracle
// with a bound of zero: every aggregate equals the row-scan reference,
// across window shapes, odd shard fills, Since deltas and a ClearDrift
// sequence, and the results are identical at pool widths 1 and 8.
func TestSketchDifferentialBound(t *testing.T) {
	answers := map[string][]string{}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tensor.SetMaxWorkers(workers)
			defer tensor.SetMaxWorkers(0)
			sizes := []int{65, 500, 3000}
			for seed := 0; seed < 6; seed++ {
				r := rand.New(rand.NewSource(int64(4000 + seed)))
				s := sketchStore(r, sizes[seed%len(sizes)], 200, sketchTestConfig())
				for wi, w := range sketchWindows() {
					v := s.Window(w[0], w[1])
					requireViewMatchesScan(t, v, tierConds())
					prev := v.ShardRows()
					for i := range prev {
						prev[i] /= 2
					}
					d, err := v.Since(prev, v.from/2+min(v.to, 1000*int64(time.Second))/2)
					if err != nil {
						t.Fatal(err)
					}
					requireViewMatchesScan(t, d, tierConds())
					key := fmt.Sprint(seed, "/", wi)
					got := viewAnswers(t, v, tierConds())
					if want, ok := answers[key]; ok && !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d window %d: answers differ across pool widths", seed, wi)
					}
					answers[key] = got
				}
			}
		})
	}
}

// interleavedSketchStore builds a 6000-row log over 1000 s in which
// adjacent 32-row runs arrive swapped (two writers whose batches land
// alternately), so every populated shard is time-unsorted, with
// app_version tiered up.
func interleavedSketchStore() *Store {
	r := rand.New(rand.NewSource(21))
	s := NewStoreWithSketch(sketchTestConfig())
	base := time.Unix(0, 0).UTC()
	var batch []Entry
	for g := 0; g < 6000; g++ {
		v := r.Intn(300)
		if r.Float64() < 0.6 {
			v = r.Intn(10)
		}
		batch = append(batch, Entry{
			Time:     base.Add(time.Duration(g^32) * time.Second / 6),
			Drift:    r.Float64() < 0.3,
			SampleID: -1,
			Attrs: map[string]string{
				AttrWeather:   fmt.Sprintf("w%d", r.Intn(6)),
				AttrLocation:  fmt.Sprintf("city_%d", r.Intn(9)),
				AttrDevice:    fmt.Sprintf("dev_%d", r.Intn(12)),
				"app_version": fmt.Sprintf("1.%d", v),
			},
		})
		if len(batch) == 128 {
			s.AppendBatch(batch)
			batch = batch[:0]
		}
	}
	s.AppendBatch(batch)
	return s
}

// TestSketchUnalignedWindowOverInterleavedWriters is the traffic shape the
// composed benchmark runs: unsorted shards and a window with ragged bounds
// over a tiered attribute. Every result must equal the scan reference, and
// the whole result set must hash to its pinned digest.
func TestSketchUnalignedWindowOverInterleavedWriters(t *testing.T) {
	s := interleavedSketchStore()
	base := time.Unix(0, 0).UTC()
	v := s.Window(base.Add(250*time.Second), base.Add(957*time.Second))
	if st := s.Stats(); st.SketchAttrs != 1 {
		t.Fatalf("store shape: %+v, want a tiered attribute", st)
	}
	for si := range v.shards {
		if v.shards[si].rows > 32 && slices.IsSorted(v.shards[si].times) {
			t.Fatalf("shard %d is time-sorted", si)
		}
	}
	conds := [][]Cond{
		{{"app_version", "1.3"}},
		{{"app_version", "1.250"}},
		{{"app_version", "1.3"}, {AttrWeather, "w2"}},
		{{"app_version", "1.7"}, {AttrWeather, "w0"}, {AttrLocation, "city_4"}},
		{{AttrWeather, "w1"}, {AttrLocation, "city_2"}},
	}
	requireViewMatchesScan(t, v, conds)
	h := fnv.New64a()
	lines := viewAnswers(t, v, conds)
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	const want = "aacd5fffc1baf002"
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Fatalf("result digest %s over %d lines, want %s", got, len(lines), want)
	}
}

// TestSketchDeltaFallbackExact pins that Since-derived delta views answer
// tiered attributes exactly, so incremental mining's additivity holds for
// the delta term.
func TestSketchDeltaFallbackExact(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	s := sketchStore(r, 2000, 200, sketchTestConfig())
	base := time.Unix(0, 0).UTC()
	v1 := s.Window(time.Time{}, base.Add(600*time.Second))
	prevRows := v1.ShardRows()
	_, to1 := v1.Bounds()
	// Pin the exact prev-window count before growing the log: the new
	// batch contains rows with timestamps inside the prev window, which
	// belong to the delta (appended after the watermark), not to prev.
	c1, _ := refCount(v1, []Cond{{"app_version", "1.3"}}, nil)

	var batch []Entry
	for i := 0; i < 500; i++ {
		batch = append(batch, Entry{
			Time:     base.Add(time.Duration(r.Intn(1000)) * time.Second),
			Drift:    r.Float64() < 0.3,
			SampleID: -1,
			Attrs:    map[string]string{"app_version": fmt.Sprintf("1.%d", r.Intn(200)), AttrWeather: "w0"},
		})
	}
	s.AppendBatch(batch)

	v2 := s.Window(time.Time{}, base.Add(900*time.Second))
	delta, err := v2.Since(prevRows, to1)
	if err != nil {
		t.Fatal(err)
	}
	conds := []Cond{{"app_version", "1.3"}}
	cd, err := delta.Count(conds, nil)
	if err != nil {
		t.Fatal(err)
	}
	cdScan, err := refCount(delta, conds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cd != cdScan {
		t.Fatalf("delta tiered-attr count %+v != scan %+v", cd, cdScan)
	}
	// Exact decomposition over the scan reference sanity-checks the window
	// plumbing under tiering.
	c2, _ := refCount(v2, conds, nil)
	if c2.Total != c1.Total+cd.Total {
		t.Fatalf("decomposition: full %d != prev %d + delta %d", c2.Total, c1.Total, cd.Total)
	}
}

// TestSketchClearDriftExact pins that counterfactual clearing on a tiered
// attribute is exact, and so is every query under the mutated overlay.
func TestSketchClearDriftExact(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	s := sketchStore(r, 2500, 200, sketchTestConfig())
	v := s.All()
	ovA := v.DriftOverlay()
	ovB := v.DriftOverlay()
	defer ovA.Release()
	defer ovB.Release()
	conds := []Cond{{"app_version", "1.2"}}
	na, err1 := v.ClearDrift(conds, ovA)
	nb, err2 := refClearDrift(v, conds, ovB)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs %v %v", err1, err2)
	}
	if na != nb || na == 0 {
		t.Fatalf("ClearDrift %d, scan %d (want equal and nonzero)", na, nb)
	}
	if ovA.Epoch() == 0 {
		t.Fatal("mutating clear left epoch 0")
	}
	got, _ := v.Count(conds, ovA)
	want, _ := refCount(v, conds, ovB)
	if got != want {
		t.Fatalf("post-clear tiered count %+v != scan %+v", got, want)
	}
	if ga, wa := valueMap(v.AttrValueCounts(ovA)), refAttrValueCounts(v, ovB); !reflect.DeepEqual(ga, wa) {
		t.Fatal("post-clear AttrValueCounts diverge from scan")
	}
	if gp, wp := v.PairCounts(ovA, nil), refPairCounts(v, ovB, nil); !reflect.DeepEqual(gp, wp) {
		t.Fatal("post-clear PairCounts diverge from scan")
	}
}

// diffShards compares the whole row and index state of two stores — the
// attribute registry and dictionaries, then shard by shard sequence numbers,
// times, drift flags and their bitmap, and per column the position, ids,
// bitmaps, held values and tier flag — and returns the first difference ("" when there is
// none).
func diffShards(got, want *Store) string {
	if !reflect.DeepEqual(got.attrOrder, want.attrOrder) {
		return fmt.Sprintf("attributes %v, want %v", got.attrOrder, want.attrOrder)
	}
	for name, d := range got.dicts {
		if !reflect.DeepEqual(d.vals, want.dicts[name].vals) {
			return fmt.Sprintf("attribute %s: dictionary differs", name)
		}
	}
	for si := range got.shards {
		g, w := &got.shards[si], &want.shards[si]
		switch {
		case !reflect.DeepEqual(g.seqs, w.seqs) || !reflect.DeepEqual(g.times, w.times):
			return fmt.Sprintf("shard %d: rows differ", si)
		case !reflect.DeepEqual(g.drift, w.drift) || !reflect.DeepEqual(g.driftBits, w.driftBits):
			return fmt.Sprintf("shard %d: drift flags differ", si)
		case len(g.cols) != len(w.cols):
			return fmt.Sprintf("shard %d: %d columns, want %d", si, len(g.cols), len(w.cols))
		}
		for name, gc := range g.cols {
			wc := w.cols[name]
			switch {
			case wc == nil:
				return fmt.Sprintf("shard %d: column %s missing", si, name)
			case gc.pos != wc.pos:
				return fmt.Sprintf("shard %d column %s: position %d, want %d", si, name, gc.pos, wc.pos)
			case gc.tiered != wc.tiered:
				return fmt.Sprintf("shard %d column %s: tiered %v, want %v", si, name, gc.tiered, wc.tiered)
			case !reflect.DeepEqual(gc.ids, wc.ids):
				return fmt.Sprintf("shard %d column %s: ids differ", si, name)
			case !reflect.DeepEqual(gc.bits, wc.bits) || !reflect.DeepEqual(gc.rows, wc.rows) || !reflect.DeepEqual(gc.levels, wc.levels):
				return fmt.Sprintf("shard %d column %s: bitmaps, counts or levels differ", si, name)
			}
		}
	}
	return ""
}

// TestSketchColumnarIngestEquivalence pins that the columnar append leaves
// the store in the state the row-at-a-time reference appender
// (rowref_test.go) leaves it in — every dictionary, row, id, bitmap and
// tier flag, after every batch — over batches with out-of-order times, rows
// missing attributes (device included, so both shard placements run),
// repeated values inside a batch and two tier-ups mid-stream.
func TestSketchColumnarIngestEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	base := time.Unix(0, 0).UTC()
	cfg := sketchTestConfig()
	rowStore, colStore := NewStoreWithSketch(cfg), NewStoreWithSketch(cfg)
	for batch := 0; batch < 24; batch++ {
		n := []int{1, 16, 128, 300}[batch%4]
		entries := make([]Entry, n)
		for i := range entries {
			attrs := map[string]string{}
			if r.Float64() < 0.9 {
				attrs["app_version"] = fmt.Sprintf("1.%d", r.Intn(8+batch*12))
			}
			if r.Float64() < 0.8 {
				attrs["firmware"] = fmt.Sprintf("fw%d", r.Intn(2+batch*2)) // crosses the threshold later
			}
			if r.Float64() < 0.9 {
				attrs[AttrWeather] = fmt.Sprintf("w%d", r.Intn(6))
			}
			if r.Float64() < 0.7 {
				attrs[AttrDevice] = fmt.Sprintf("dev%d", r.Intn(12))
			}
			at := time.Duration(batch*60+r.Intn(120)) * time.Second
			if r.Float64() < 0.15 {
				at = time.Duration(r.Intn(batch*60+1)) * time.Second
			}
			entries[i] = Entry{Time: base.Add(at), Drift: r.Float64() < 0.3, SampleID: -1, Attrs: attrs}
		}
		refAppendBatch(rowStore, entries)
		if err := colStore.AppendColumns(ColumnsFromEntries(entries)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rowStore.SketchedAttrs(), colStore.SketchedAttrs()) {
			t.Fatalf("batch %d: tiered attrs diverge: %v vs %v", batch, rowStore.SketchedAttrs(), colStore.SketchedAttrs())
		}
		if d := diffShards(colStore, rowStore); d != "" {
			t.Fatalf("batch %d (%d rows): %s", batch, n, d)
		}
	}
	if got := colStore.SketchedAttrs(); !reflect.DeepEqual(got, []string{"app_version", "firmware"}) {
		t.Fatalf("tiered attrs %v, want both high-cardinality attributes (two tier-ups)", got)
	}
}

// TestSketchCompactRebuild pins that Compact keeps a tiered column tiered:
// it builds no bitmap for it (Stats.IndexBitmaps counts only the other
// columns' values), tiering stays sticky, and every query answers what an
// untiered twin compacted at the same cutoff answers.
func TestSketchCompactRebuild(t *testing.T) {
	s := sketchStore(rand.New(rand.NewSource(11)), 3000, 200, sketchTestConfig())
	twin := sketchStore(rand.New(rand.NewSource(11)), 3000, 200, untiered)
	cutoff := time.Unix(500, 0)
	if removed, twinRemoved := s.Compact(cutoff), twin.Compact(cutoff); removed == 0 || removed != twinRemoved {
		t.Fatalf("compaction removed %d rows, the twin %d", removed, twinRemoved)
	}
	if got := s.SketchedAttrs(); len(got) != 1 {
		t.Fatalf("tiering must be sticky across compaction, got %v", got)
	}
	requireNoBits(t, s, "app_version")
	tieredBitmaps := 0 // the twin's app_version bitmaps
	for si := range twin.shards {
		if col := twin.shards[si].cols["app_version"]; col != nil {
			for _, bm := range col.bits {
				if bm != nil {
					tieredBitmaps++
				}
			}
		}
	}
	if got, want := s.Stats().IndexBitmaps, twin.Stats().IndexBitmaps-tieredBitmaps; tieredBitmaps == 0 || got != want {
		t.Fatalf("IndexBitmaps %d after Compact, want %d (the twin's %d less app_version's %d)",
			got, want, twin.Stats().IndexBitmaps, tieredBitmaps)
	}
	for _, w := range sketchWindows() {
		requireSameAnswers(t, fmt.Sprint("window ", w), s.Window(w[0], w[1]), twin.Window(w[0], w[1]), tierConds())
	}
}

// TestSketchPersistRoundTrip pins that a WAL round trip re-tiers the
// high-cardinality attribute and answers what the source store answers.
func TestSketchPersistRoundTrip(t *testing.T) {
	s := sketchStore(rand.New(rand.NewSource(12)), 2000, 200, sketchTestConfig())
	loaded := walRoundTrip(t, s, NewStoreWithSketch(sketchTestConfig()))
	if !reflect.DeepEqual(s.SketchedAttrs(), loaded.SketchedAttrs()) {
		t.Fatalf("tiered attrs diverge after round trip: %v vs %v", s.SketchedAttrs(), loaded.SketchedAttrs())
	}
	requireNoBits(t, loaded, "app_version")
	requireSameAnswers(t, "round trip", loaded.All(), s.All(), tierConds())
}

// TestPinnedViewSurvivesTierUpAndCompact pins that a view is a snapshot: one
// pinned while firmware is still on the bitmaps answers, after firmware
// tiers up and Compact drops the older half of the log, exactly what it
// answered before either.
func TestPinnedViewSurvivesTierUpAndCompact(t *testing.T) {
	s := NewStoreWithSketch(sketchTestConfig())
	base := time.Unix(0, 0).UTC()
	r := rand.New(rand.NewSource(31))
	batch := func(at, n, firmwares int) []Entry {
		out := make([]Entry, n)
		for i := range out {
			out[i] = Entry{Time: base.Add(time.Duration(at+i) * time.Second), Drift: r.Float64() < 0.3, SampleID: int64(at + i),
				Attrs: map[string]string{
					AttrDevice:  fmt.Sprintf("dev%d", r.Intn(40)),
					AttrWeather: fmt.Sprintf("w%d", r.Intn(4)),
					"firmware":  fmt.Sprintf("fw%d", r.Intn(firmwares)),
				}}
		}
		return out
	}
	s.AppendBatch(batch(0, 600, 12)) // 12 firmwares: under the threshold of 16
	conds := [][]Cond{
		{{"firmware", "fw3"}},
		{{"firmware", "fw5"}, {AttrWeather, "w1"}},
		{{AttrWeather, "w2"}},
		{{AttrDevice, "dev7"}, {"firmware", "fw0"}},
	}
	for i, v := range []*View{s.All(), s.Window(base.Add(100*time.Second), base.Add(450*time.Second))} {
		before := viewAnswers(t, v, conds)
		at := 600 * (i + 1)
		s.AppendBatch(batch(at, 600, 60)) // firmware tiers up
		if got := s.SketchedAttrs(); !slices.Contains(got, "firmware") {
			t.Fatalf("tiered %v: firmware never tiered up", got)
		}
		if n := s.Compact(base.Add(time.Duration(at-300) * time.Second)); n == 0 {
			t.Fatal("Compact removed nothing")
		}
		if after := viewAnswers(t, v, conds); !reflect.DeepEqual(after, before) {
			t.Fatalf("view pinned before the tier-up and Compact: %d answers after, %d before", len(after), len(before))
		}
	}
}

// TestDictionaryRetentionChurn pins the dictionaries' append-only bound. An
// attribute on the bitmaps interns exactly the values rows carried: a batch
// dictionary entry no row references is no sighting. A tiered attribute whose
// values churn under retention keeps every value it ever saw — Compact drops
// rows, never ids — and each value keeps its id, while every query answers
// what an untiered twin compacted alike answers.
func TestDictionaryRetentionChurn(t *testing.T) {
	s, twin := NewStoreWithSketch(sketchTestConfig()), NewStoreWithSketch(untiered)
	b := &ColumnarBatch{Times: []int64{0}, Drift: []bool{true}, SampleIDs: []int64{-1},
		Cols: []ColumnData{{Name: AttrWeather, Dict: []string{"", "unused", "w0"}, IDs: []uint32{2}}}}
	for _, st := range []*Store{s, twin} {
		if err := st.AppendColumns(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.dicts[AttrWeather].vals; !reflect.DeepEqual(got, []string{"", "w0"}) {
		t.Fatalf("weather dictionary %q, want only the value a row carried", got)
	}
	base := time.Unix(0, 0).UTC()
	ids := map[string]uint32{}
	for round := range 6 {
		var batch []Entry
		for i := range 40 {
			batch = append(batch, Entry{Time: base.Add(time.Duration(100*round+i+1) * time.Second), Drift: i%3 == 0, SampleID: -1,
				Attrs: map[string]string{"build": fmt.Sprintf("b%d.%d", round, i%20), AttrWeather: fmt.Sprintf("w%d", i%4),
					AttrDevice: fmt.Sprintf("dev%d", i%7)}})
		}
		cutoff := base.Add(time.Duration(100*round) * time.Second) // expires the earlier rounds
		for _, st := range []*Store{s, twin} {
			st.AppendBatch(batch)
			st.Compact(cutoff)
		}
		d := s.dicts["build"]
		if len(d.vals)-1 != 20*(round+1) {
			t.Fatalf("round %d: build dictionary holds %d values, want all %d ever seen", round, len(d.vals)-1, 20*(round+1))
		}
		for v, id := range ids {
			if d.index[v] != id {
				t.Fatalf("round %d: %s moved from id %d to %d", round, v, id, d.index[v])
			}
		}
		for id, v := range d.vals[1:] {
			ids[v] = uint32(id + 1)
		}
		conds := [][]Cond{{{"build", fmt.Sprintf("b%d.3", round)}}, {{"build", "b0.5"}}, {{"build", fmt.Sprintf("b%d.2", round)}, {AttrWeather, "w2"}}}
		requireSameAnswers(t, fmt.Sprint("round ", round), s.All(), twin.All(), conds)
	}
	if got := s.SketchedAttrs(); !reflect.DeepEqual(got, []string{"build"}) {
		t.Fatalf("tiered %v, want build", got)
	}
}
