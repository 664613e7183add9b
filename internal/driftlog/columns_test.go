package driftlog

import (
	"bytes"
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
			rc := rowStore.Window(w[0], w[1]).AttrValueCounts(nil)
			cc := colStore.Window(w[0], w[1]).AttrValueCounts(nil)
			if !reflect.DeepEqual(rc, cc) {
				t.Fatalf("seed %d window %v: counts diverge\n row path %v\n col path %v", seed, w, rc, cc)
			}
		}
		if !reflect.DeepEqual(rowStore.Attributes(), colStore.Attributes()) {
			t.Fatalf("seed %d: attributes %v vs %v", seed, rowStore.Attributes(), colStore.Attributes())
		}
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

// TestWALFrameColumnsByteEqual pins the frame encoder against the
// row-form reference encoder on random batches (missing attributes,
// scattered timestamps): byte-identical records.
func TestWALFrameColumnsByteEqual(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(500 + seed))
		entries := randomColumnarEntries(r, r.Intn(80))
		rowFrame := refAppendWALFrame(nil, entries)
		colFrame := appendWALFrameColumns(nil, ColumnsFromEntries(entries))
		if !bytes.Equal(rowFrame, colFrame) {
			t.Fatalf("seed %d: WAL frames diverge (%d rows): row %d bytes, columnar %d bytes",
				seed, len(entries), len(rowFrame), len(colFrame))
		}
	}
}

// TestWALFrameGolden pins the on-disk record bytes against the frame
// encoder for a fixed batch: a row with every attribute, a row missing
// one, a row with none, out-of-order timestamps, and absent, small and
// two-byte sample ids. A diff here is a WAL format change and needs a
// record-version bump, not a new hex string.
func TestWALFrameGolden(t *testing.T) {
	const want = "7c000000b3a1ead6" +
		"010380e8c9c5df85fde92b000103066465766963650a616e64726f69645f3432086c6f636174696f6e0848656c73696e6b69077765617468657209636c6561722d646179" +
		"e8dfb4ba8387fde92b010e02066465766963650a616e64726f69645f3231077765617468657204736e6f77" +
		"80a0b58ac384fde92b01d80400"
	entries := []Entry{
		{Time: time.Unix(1579068121, 0).UTC(), Drift: false, SampleID: -1,
			Attrs: map[string]string{AttrWeather: "clear-day", AttrDevice: "android_42", AttrLocation: "Helsinki"}},
		{Time: time.Unix(1579068143, 500).UTC(), Drift: true, SampleID: 7,
			Attrs: map[string]string{AttrWeather: "snow", AttrDevice: "android_21"}},
		{Time: time.Unix(1579068100, 0).UTC(), Drift: true, SampleID: 300,
			Attrs: map[string]string{}},
	}
	frame := appendWALFrameColumns(nil, ColumnsFromEntries(entries))
	if got := hex.EncodeToString(frame); got != want {
		t.Fatalf("WAL frame bytes changed:\n got %s\nwant %s", got, want)
	}
	decoded, err := decodeWALPayload(frame[8:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, entries) {
		t.Fatalf("golden frame decodes to\n%+v\nwant\n%+v", decoded, entries)
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
	indexed := v.AttrValueCounts(nil)
	scanned := refAttrValueCounts(v, nil)
	if !reflect.DeepEqual(indexed, scanned) {
		t.Fatal("bitset index diverged from scan reference after concurrent mixed appends")
	}
}
