package driftlog

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// randomColumnarEntries fabricates entries with the awkward shapes the
// columnar path has to survive: attributes missing at random (odd shard
// fills and backfill), variable device cardinality, and scattered
// timestamps.
func randomColumnarEntries(r *rand.Rand, n int) []Entry {
	devs := r.Intn(20) + 1
	base := time.Unix(0, 0).UTC()
	entries := make([]Entry, n)
	for i := range entries {
		attrs := map[string]string{}
		if r.Float64() < 0.9 {
			attrs[AttrWeather] = fmt.Sprintf("w%d", r.Intn(5))
		}
		if r.Float64() < 0.85 {
			attrs[AttrLocation] = fmt.Sprintf("city_%d", r.Intn(7))
		}
		if r.Float64() < 0.75 {
			attrs[AttrDevice] = fmt.Sprintf("dev_%d", r.Intn(devs))
		}
		entries[i] = Entry{
			Time:     base.Add(time.Duration(r.Intn(1000)) * time.Second),
			Drift:    r.Float64() < 0.3,
			SampleID: int64(r.Intn(50)) - 1,
			Attrs:    attrs,
		}
	}
	return entries
}

func TestColumnsFromEntriesRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		entries := randomColumnarEntries(r, r.Intn(120))
		b := ColumnsFromEntries(entries)
		if err := b.Validate(); err != nil {
			t.Fatalf("seed %d: ColumnsFromEntries produced invalid batch: %v", seed, err)
		}
		got := b.Entries()
		if len(got) != len(entries) {
			t.Fatalf("seed %d: round trip %d rows, want %d", seed, len(got), len(entries))
		}
		for i := range entries {
			if !reflect.DeepEqual(got[i], entries[i]) {
				t.Fatalf("seed %d row %d: round trip\n got %+v\nwant %+v", seed, i, got[i], entries[i])
			}
		}
	}
}

// TestAppendColumnsDifferential pins the ingest invariant: a store fed
// through the columnar path is row-for-row and query-for-query identical
// to one fed the same entries through the row-at-a-time reference
// appender.
func TestAppendColumnsDifferential(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		entries := randomColumnarEntries(r, r.Intn(200))

		rowStore := NewStore()
		refAppendBatch(rowStore, entries)
		colStore := NewStore()
		if err := colStore.AppendColumns(ColumnsFromEntries(entries)); err != nil {
			t.Fatalf("seed %d: AppendColumns: %v", seed, err)
		}

		if rowStore.Len() != colStore.Len() {
			t.Fatalf("seed %d: row store %d rows, columnar store %d", seed, rowStore.Len(), colStore.Len())
		}
		for i := 0; i < rowStore.Len(); i++ {
			re, ce := rowStore.Entry(i), colStore.Entry(i)
			if !reflect.DeepEqual(re, ce) {
				t.Fatalf("seed %d row %d:\n row path %+v\n col path %+v", seed, i, re, ce)
			}
		}

		// The bitset index must agree too, including on sub-windows that
		// cut through shard middles.
		base := time.Unix(0, 0).UTC()
		windows := [][2]time.Time{
			{{}, {}},
			{base.Add(200 * time.Second), base.Add(700 * time.Second)},
		}
		for _, w := range windows {
			rc := valueMap(rowStore.Window(w[0], w[1]).AttrValueCounts(nil))
			cc := valueMap(colStore.Window(w[0], w[1]).AttrValueCounts(nil))
			if !reflect.DeepEqual(rc, cc) {
				t.Fatalf("seed %d window %v: counts diverge\n row path %v\n col path %v", seed, w, rc, cc)
			}
		}
		if !reflect.DeepEqual(rowStore.Attributes(), colStore.Attributes()) {
			t.Fatalf("seed %d: attributes %v vs %v", seed, rowStore.Attributes(), colStore.Attributes())
		}
	}
}

// TestAppendColumnsBackfill pins the backfill of rows that lack an
// attribute against the row-at-a-time reference appender: one device's rows
// (so one shard) carry different attribute subsets, a column first appears
// mid-batch, a column skips rows between its values, and a later batch
// carries neither of two columns the shard holds. Every shard column must
// end each batch as long as the shard, with the ids in their rows.
func TestAppendColumnsBackfill(t *testing.T) {
	base := time.Unix(0, 0).UTC()
	row := func(sec int, attrs ...string) Entry {
		m := map[string]string{AttrDevice: "dev_0"}
		for i := 0; i < len(attrs); i += 2 {
			m[attrs[i]] = attrs[i+1]
		}
		return Entry{Time: base.Add(time.Duration(sec) * time.Second), SampleID: -1, Attrs: m}
	}
	batches := [][]Entry{
		{row(0, "a", "a0"), row(1, "a", "a1")},
		{row(2, "a", "a0", "b", "b0"), row(3), row(4, "c", "c0"), row(5, "b", "b1"), row(6, "a", "a1", "c", "c1"), row(7)},
		{row(8, "a", "a0"), row(9)},
	}
	rowStore, colStore := NewStore(), NewStore()
	for i, b := range batches {
		refAppendBatch(rowStore, b)
		if err := colStore.AppendColumns(ColumnsFromEntries(b)); err != nil {
			t.Fatal(err)
		}
		if d := diffShards(colStore, rowStore); d != "" {
			t.Fatalf("batch %d: %s", i, d)
		}
	}
	if got := colStore.All().Len(); got != 10 {
		t.Fatalf("%d rows, want 10", got)
	}
}

func TestAppendColumnsEmptyBatch(t *testing.T) {
	s := NewStore()
	if err := s.AppendColumns(&ColumnarBatch{}); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("empty batch appended %d rows", s.Len())
	}
}

func TestAppendColumnsRejectsInvalid(t *testing.T) {
	cases := map[string]*ColumnarBatch{
		"length mismatch": {Times: []int64{1, 2}, Drift: []bool{true}, SampleIDs: []int64{-1, -1}},
		"missing reserved dict slot": {
			Times: []int64{1}, Drift: []bool{false}, SampleIDs: []int64{-1},
			Cols: []ColumnData{{Name: "weather", Dict: []string{"snow"}, IDs: []uint32{0}}},
		},
		"dict id out of range": {
			Times: []int64{1}, Drift: []bool{false}, SampleIDs: []int64{-1},
			Cols: []ColumnData{{Name: "weather", Dict: []string{"", "snow"}, IDs: []uint32{2}}},
		},
		"duplicate column": {
			Times: []int64{1}, Drift: []bool{false}, SampleIDs: []int64{-1},
			Cols: []ColumnData{
				{Name: "weather", Dict: []string{""}, IDs: []uint32{0}},
				{Name: "weather", Dict: []string{""}, IDs: []uint32{0}},
			},
		},
		"empty column name": {
			Times: []int64{1}, Drift: []bool{false}, SampleIDs: []int64{-1},
			Cols: []ColumnData{{Name: "", Dict: []string{""}, IDs: []uint32{0}}},
		},
	}
	for name, b := range cases {
		s := NewStore()
		if err := s.AppendColumns(b); err == nil {
			t.Errorf("%s: AppendColumns accepted an invalid batch", name)
		} else if s.Len() != 0 {
			t.Errorf("%s: invalid batch still appended %d rows", name, s.Len())
		}
	}
}

// goldenRecordBatch is the fixed batch the record golden pins: a row
// with every attribute, a row missing one, a row with none, out-of-order
// timestamps, absent, small and two-byte sample ids, and one row's vector.
func goldenRecordBatch() ([]Entry, [][]float64) {
	entries := []Entry{
		{Time: time.Unix(1579068121, 0).UTC(), Drift: false, SampleID: -1,
			Attrs: map[string]string{AttrWeather: "clear-day", AttrDevice: "android_42", AttrLocation: "Helsinki"}},
		{Time: time.Unix(1579068143, 500).UTC(), Drift: true, SampleID: 7,
			Attrs: map[string]string{AttrWeather: "snow", AttrDevice: "android_21"}},
		{Time: time.Unix(1579068100, 0).UTC(), Drift: true, SampleID: 300,
			Attrs: map[string]string{}},
	}
	return entries, [][]float64{nil, {0.5, -2}, nil}
}

// TestWALFrameRecordGolden pins the on-disk record bytes the WAL writes
// for the same batch: [len][crc] around its NZB1 frame. A diff here is a
// frame format change and needs a frame version bump, not a new hex
// string.
func TestWALFrameRecordGolden(t *testing.T) {
	const want = "8f00000017a663a1" +
		"4e5a42310101810000008f899ac4" + // frame header: magic, version 1, flags (samples), payload length, crc
		"0380e8c9c5df85fde92be8f7eaf4a301e7bfffafc002" + // 3 rows, delta-encoded times
		"06" + "010ed804" + // drift bitmap, sample ids
		"03" + "06646576696365020a616e64726f69645f34320a616e64726f69645f3231010200" +
		"086c6f636174696f6e010848656c73696e6b69010000" +
		"07776561746865720209636c6561722d64617904736e6f77010200" +
		"010102000000000000e03f00000000000000c0" // sample section: row 1 = {0.5, -2}
	entries, samples := goldenRecordBatch()
	b := ColumnsFromEntries(entries)
	b.Samples = samples
	rec, err := appendRecord(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(rec); got != want {
		t.Fatalf("WAL record bytes changed:\n got %s\nwant %s", got, want)
	}
	got, err := DecodeFrame(rec[8:], 0)
	if err != nil || got.Rows() != len(entries) {
		t.Fatalf("golden record decodes to %v: %v", got, err)
	}
	s := NewStore()
	s.appendColumns(got)
	for i, e := range entries {
		if got := s.Entry(i); !reflect.DeepEqual(got, e) {
			t.Fatalf("golden record row %d replays to %+v, want %+v", i, got, e)
		}
	}
	if ids, xs, _ := s.All().Samples(nil); !reflect.DeepEqual(ids, []int64{7}) || !reflect.DeepEqual(xs, samples[1:2]) {
		t.Fatalf("golden record replays vectors %v %v", ids, xs)
	}
}

// TestColumnsFromEntriesFrameGolden pins the frame ColumnsFromEntries
// yields for a batch whose attributes first appear mid-batch: row 0 has
// only weather, device first appears at row 1, and location and
// "z_custom" (which sorts last) at row 4, after a row with no
// attributes. The frame lists the columns in name order, each
// dictionary in first-seen row order, whatever order the rows' attribute
// maps iterate in.
func TestColumnsFromEntriesFrameGolden(t *testing.T) {
	const want = "4e5a42310100a60000005f4db369" + // frame header: magic, version 1, no flags, payload length, crc
		"06" + "8080fe82dafefce92b" + "80a8d6b907" + "80a8d6b907" + "80a8d6b907" + "80a8d6b907" + "80a8d6b907" + // 6 rows, delta-encoded times
		"30" + "010101010101" + // drift bitmap (rows 4, 5), sample ids (all absent)
		"04" + // four columns, by name
		"06646576696365" + "02" + "0a616e64726f69645f3231" + "0a616e64726f69645f3432" + "000102000102" +
		"086c6f636174696f6e" + "02" + "0848656c73696e6b69" + "084e657720596f726b" + "000000000102" +
		"0777656174686572" + "03" + "04736e6f77" + "047261696e" + "09666f672d6e69676874" + "010102000302" +
		"087a5f637573746f6d" + "01" + "0178" + "000000000100"
	at := func(s int) time.Time { return time.Unix(1579068000+int64(s), 0).UTC() }
	entries := []Entry{
		{Time: at(0), SampleID: -1, Attrs: map[string]string{AttrWeather: "snow"}},
		{Time: at(1), SampleID: -1, Attrs: map[string]string{AttrWeather: "snow", AttrDevice: "android_21"}},
		{Time: at(2), SampleID: -1, Attrs: map[string]string{AttrWeather: "rain", AttrDevice: "android_42"}},
		{Time: at(3), SampleID: -1, Attrs: map[string]string{}},
		{Time: at(4), Drift: true, SampleID: -1, Attrs: map[string]string{
			AttrLocation: "Helsinki", AttrDevice: "android_21", AttrWeather: "fog-night", "z_custom": "x"}},
		{Time: at(5), Drift: true, SampleID: -1, Attrs: map[string]string{
			AttrLocation: "New York", AttrDevice: "android_42", AttrWeather: "rain"}},
	}
	for run := 0; run < 20; run++ { // map iteration order varies by run
		frame, err := AppendFrame(nil, ColumnsFromEntries(entries))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(frame); got != want {
			t.Fatalf("run %d: frame bytes changed:\n got %s\nwant %s", run, got, want)
		}
	}
}

// TestWALAppendColumnsReplay proves a columnar-written WAL replays into
// a store identical to the live one.
func TestWALAppendColumnsReplay(t *testing.T) {
	dir := t.TempDir()
	live := NewStore()
	w, err := OpenWAL(dir, live, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	var all []Entry
	for batch := 0; batch < 4; batch++ {
		entries := randomColumnarEntries(r, 20+r.Intn(30))
		all = append(all, entries...)
		cols := ColumnsFromEntries(entries)
		if err := w.AppendColumns(cols); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if err := live.AppendColumns(cols); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	replayed := NewStore()
	w2, err := OpenWAL(dir, replayed, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if replayed.Len() != len(all) {
		t.Fatalf("replayed %d rows, want %d", replayed.Len(), len(all))
	}
	for i := 0; i < replayed.Len(); i++ {
		if !reflect.DeepEqual(replayed.Entry(i), live.Entry(i)) {
			t.Fatalf("row %d: replayed %+v, live %+v", i, replayed.Entry(i), live.Entry(i))
		}
	}
}

// TestAppendColumnsConcurrent interleaves columnar and row-form appends
// from many goroutines: the shard locks must keep every per-row
// invariant (parallel slices, backfill, bitmap bounds) intact.
func TestAppendColumnsConcurrent(t *testing.T) {
	s := NewStore()
	const goroutines = 8
	const batches = 6
	var wg sync.WaitGroup
	total := 0
	for g := 0; g < goroutines; g++ {
		r := rand.New(rand.NewSource(int64(g)))
		var payloads []*ColumnarBatch
		var rowPayloads [][]Entry
		for i := 0; i < batches; i++ {
			entries := randomColumnarEntries(r, 10+r.Intn(20))
			total += len(entries)
			if g%2 == 0 {
				payloads = append(payloads, ColumnsFromEntries(entries))
			} else {
				rowPayloads = append(rowPayloads, entries)
			}
		}
		wg.Add(1)
		go func(cols []*ColumnarBatch, rows [][]Entry) {
			defer wg.Done()
			for _, b := range cols {
				if err := s.AppendColumns(b); err != nil {
					t.Errorf("AppendColumns: %v", err)
				}
			}
			for _, entries := range rows {
				s.AppendBatch(entries)
			}
		}(payloads, rowPayloads)
	}
	wg.Wait()
	if s.Len() != total {
		t.Fatalf("store has %d rows, want %d", s.Len(), total)
	}
	// Full-view counts must still be internally consistent: the indexed
	// path and the scan reference agree after mixed concurrent ingestion.
	v := s.All()
	indexed := valueMap(v.AttrValueCounts(nil))
	scanned := refAttrValueCounts(v, nil)
	if !reflect.DeepEqual(indexed, scanned) {
		t.Fatal("bitset index diverged from scan reference after concurrent mixed appends")
	}
}
