package driftlog

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The fixtures under testdata pin every on-disk format replay reads.
// golden_v1.driftlog (a gob snapshot, as -log-file saved it) and
// golden_v1.wal (row records, version 1) were written by the seed
// implementation; golden_v2.wal (row records with sample sections) and
// golden_v2.driftlog (two gob chunks with Sample fields, as compaction
// wrote them) by the last writers of those formats. No writer of any of
// them remains, so the files cannot be regenerated: they are the
// compatibility contract.
const goldenLogPath = "testdata/golden_v1.driftlog"

// goldenLogEntries is the fixed content of golden_v1.driftlog.
func goldenLogEntries() []Entry {
	day := time.Date(2020, 1, 15, 0, 0, 0, 0, time.UTC)
	mk := func(mins int, device, weather, location string, drift bool, sampleID int64) Entry {
		return Entry{
			Time:  day.Add(time.Duration(mins) * time.Minute),
			Drift: drift,
			Attrs: map[string]string{
				AttrDevice:   device,
				AttrWeather:  weather,
				AttrLocation: location,
			},
			SampleID: sampleID,
		}
	}
	return []Entry{
		mk(362, "android_42", "clear-day", "Helsinki", false, -1),
		mk(363, "android_21", "clear-day", "New York", false, -1),
		mk(365, "android_21", "clear-day", "New York", true, 7),
		mk(483, "android_21", "snow", "New York", true, 8),
		mk(665, "android_42", "snow", "Helsinki", true, -1),
	}
}

// goldenV1WALEntries is the fixed content of golden_v1.wal: two records,
// sampled and unsampled rows, no vectors.
func goldenV1WALEntries(t *testing.T) []Entry {
	at := func(hhmm string) time.Time { return goldenAt(t, "2020-01-15", hhmm) }
	return []Entry{
		{Time: at("06:02"), SampleID: -1, Attrs: goldenAttrs("android_42", "clear-day", "Helsinki")},
		{Time: at("06:03"), Drift: true, SampleID: 0, Attrs: goldenAttrs("android_21", "snow", "New York")},
		{Time: at("06:05"), Drift: true, SampleID: 1, Attrs: goldenAttrs("android_21", "snow", "New York")},
		{Time: at("08:03"), Drift: true, SampleID: 2, Attrs: goldenAttrs("android_42", "fog", "Helsinki")},
		{Time: at("11:05"), SampleID: -1, Attrs: goldenAttrs("android_42", "clear-day", "")},
	}
}

// goldenRow is one fixture row: its entry and its uploaded vector (nil
// when the row carries none).
type goldenRow struct {
	e   Entry
	vec []float64
}

func goldenAt(t *testing.T, day, hhmm string) time.Time {
	t.Helper()
	tm, err := time.Parse("2006-01-02T15:04", day+"T"+hhmm)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func goldenAttrs(device, weather, location string) map[string]string {
	m := map[string]string{AttrDevice: device, AttrWeather: weather}
	if location != "" {
		m[AttrLocation] = location
	}
	return m
}

// goldenBatch turns fixture rows into one columnar batch with its
// sample column.
func goldenBatch(rows []goldenRow) *ColumnarBatch {
	entries := make([]Entry, len(rows))
	samples := make([][]float64, len(rows))
	for i, r := range rows {
		entries[i], samples[i] = r.e, r.vec
	}
	b := ColumnsFromEntries(entries)
	b.Samples = samples
	return b
}

// goldenV2WALRecords is the content of testdata/golden_v2.wal: two
// version-2 records, sampled and unsampled rows.
func goldenV2WALRecords(t *testing.T) [][]goldenRow {
	at := func(hhmm string) time.Time { return goldenAt(t, "2020-01-16", hhmm) }
	return [][]goldenRow{
		{
			{Entry{Time: at("06:02"), Drift: true, SampleID: 3, Attrs: goldenAttrs("android_42", "snow", "Helsinki")}, []float64{0.5, -2}},
			{Entry{Time: at("06:04"), SampleID: -1, Attrs: goldenAttrs("android_21", "clear-day", "New York")}, nil},
			{Entry{Time: at("07:10"), Drift: true, SampleID: 4, Attrs: goldenAttrs("android_21", "snow", "New York")}, []float64{1.25, 0}},
		},
		{
			{Entry{Time: at("09:30"), Drift: true, SampleID: 5, Attrs: goldenAttrs("android_42", "fog", "")}, []float64{-0.75, 3}},
			{Entry{Time: at("10:00"), SampleID: -1, Attrs: goldenAttrs("android_7", "clear-day", "Quebec")}, nil},
		},
	}
}

// goldenV2LogChunks is the content of testdata/golden_v2.driftlog: two
// gob chunks whose rows carry Sample fields.
func goldenV2LogChunks(t *testing.T) [][]goldenRow {
	at := func(hhmm string) time.Time { return goldenAt(t, "2020-01-14", hhmm) }
	return [][]goldenRow{
		{
			{Entry{Time: at("05:00"), Drift: true, SampleID: 10, Attrs: goldenAttrs("android_42", "rain", "Helsinki")}, []float64{2, 4}},
			{Entry{Time: at("05:30"), SampleID: -1, Attrs: goldenAttrs("android_21", "clear-day", "New York")}, nil},
			{Entry{Time: at("06:00"), Drift: true, SampleID: 11, Attrs: goldenAttrs("android_21", "rain", "New York")}, []float64{-1, 0.5}},
		},
		{
			{Entry{Time: at("08:00"), SampleID: -1, Attrs: goldenAttrs("android_42", "clear-day", "Helsinki")}, nil},
			{Entry{Time: at("08:15"), Drift: true, SampleID: 12, Attrs: goldenAttrs("android_9", "rain", "Quebec")}, []float64{0.125, -8}},
		},
	}
}

// goldenDir builds a WAL directory from fixture files, keyed by the
// name each takes in the directory.
func goldenDir(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, fixture := range files {
		raw, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func sameEntry(a, b Entry) bool {
	if !a.Time.Equal(b.Time) || a.Drift != b.Drift || a.SampleID != b.SampleID {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for k, v := range a.Attrs {
		if b.Attrs[k] != v {
			return false
		}
	}
	return true
}

// TestGoldenLogRoundTrip loads the golden file written by the seed
// implementation as a snapshot — the path a saved -log-file takes once
// copied into a WAL directory — and checks every row survives. Nothing
// rewrites it: after a rotation, a compaction pass and a close the file
// is byte for byte the golden one, and it reloads to the same rows.
func TestGoldenLogRoundTrip(t *testing.T) {
	want := goldenLogEntries()
	raw, err := os.ReadFile(goldenLogPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte(persistHeader+"\n")) {
		t.Fatalf("golden file header changed: %q", raw[:min(len(raw), 32)])
	}

	check := func(s *Store, stage string) {
		t.Helper()
		if s.Len() != len(want) {
			t.Fatalf("%s: %d rows, want %d", stage, s.Len(), len(want))
		}
		for i, w := range want {
			if got := s.Entry(i); !sameEntry(got, w) {
				t.Fatalf("%s: row %d = %+v, want %+v", stage, i, got, w)
			}
		}
	}

	dir := goldenDir(t, map[string]string{snapName(0): goldenLogPath})
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check(s, "golden load")
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, snapName(0))); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("the snapshot changed on disk (err %v)", err)
	}
	s2 := NewStore()
	if _, err := OpenWAL(dir, s2, WALOptions{ReadOnly: true}); err != nil {
		t.Fatal(err)
	}
	check(s2, "reload")

	// The golden rows must stay queryable through the windowed view.
	cr, err := s2.All().Count([]Cond{{Attr: AttrWeather, Value: "snow"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Total != 2 || cr.Drift != 2 {
		t.Fatalf("snow count %+v, want 2/2", cr)
	}
}

// TestWALGoldenV2Replay: a sealed segment of version-2 row records
// replays to the same rows, each vector on its row.
func TestWALGoldenV2Replay(t *testing.T) {
	dir := goldenDir(t, map[string]string{segName(1): "testdata/golden_v2.wal"})
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec := w.Recovery(); rec.Records != 2 || rec.Rows != 5 || rec.TornTail {
		t.Fatalf("recovery %+v, want 2 records / 5 rows", rec)
	}
	ref := NewStore()
	for _, rec := range goldenV2WALRecords(t) {
		ref.appendColumns(goldenBatch(rec))
	}
	requireStoresEqual(t, ref, s)
	if st := s.Stats(); st.Samples != 3 || s.MaxSampleID() != 5 {
		t.Fatalf("v2 replay: %d vectors, max sample id %d", st.Samples, s.MaxSampleID())
	}
}

// TestGoldenV2LogLoad: a gob snapshot of two chunks whose rows carry
// Sample fields loads every row with its vector.
func TestGoldenV2LogLoad(t *testing.T) {
	dir := goldenDir(t, map[string]string{snapName(0): "testdata/golden_v2.driftlog"})
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec := w.Recovery(); rec.SnapshotRows != 5 || rec.Segments != 0 {
		t.Fatalf("recovery %+v, want 5 snapshot rows", rec)
	}
	ref := NewStore()
	for _, chunk := range goldenV2LogChunks(t) {
		ref.appendColumns(goldenBatch(chunk))
	}
	requireStoresEqual(t, ref, s)
}

// TestWALMigratesLegacyFormats starts from a directory holding a legacy
// gob snapshot plus sealed segments of version-1 and version-2 row
// records, appends frame records and reopens: the store equals one fed
// the same rows. The legacy files stay as they are — nothing rewrites
// them — and replay reads them on every open until retention expires
// them. With golden_v1.driftlog as the snapshot this is the -log-file
// migration path.
func TestWALMigratesLegacyFormats(t *testing.T) {
	for _, tc := range []struct {
		name, snapshot string
		feed           func(ref *Store)
	}{
		{"v2 snapshot", "testdata/golden_v2.driftlog", func(ref *Store) {
			for _, chunk := range goldenV2LogChunks(t) {
				ref.appendColumns(goldenBatch(chunk))
			}
		}},
		{"v1 log-file", goldenLogPath, func(ref *Store) { ref.AppendBatch(goldenLogEntries()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := goldenDir(t, map[string]string{
				snapName(0): tc.snapshot,
				segName(1):  "testdata/golden_v1.wal",
				segName(2):  "testdata/golden_v2.wal",
			})
			ref := NewStore()
			tc.feed(ref)
			snapRows := int64(ref.Len())
			ref.AppendBatch(goldenV1WALEntries(t))
			for _, rec := range goldenV2WALRecords(t) {
				ref.appendColumns(goldenBatch(rec))
			}

			live := NewStore()
			w, err := OpenWAL(dir, live, WALOptions{})
			if err != nil {
				t.Fatal(err)
			}
			requireStoresEqual(t, ref, live)
			for _, b := range []*ColumnarBatch{walSampled(100, 4), walSampled(104, 3)} {
				if err := w.AppendColumns(b); err != nil {
					t.Fatal(err)
				}
				ref.appendColumns(b)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			replayed := NewStore()
			w2, err := OpenWAL(dir, replayed, WALOptions{ReadOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			if rec := w2.Recovery(); rec.SnapshotRows != snapRows || rec.Rows != int64(ref.Len())-snapRows || rec.Segments != 3 {
				t.Fatalf("recovery %+v, want %d snapshot rows and %d in 3 segments", rec, snapRows, int64(ref.Len())-snapRows)
			}
			requireStoresEqual(t, ref, replayed)
		})
	}
}

// writeGobChunk writes rows to path as one legacy gob chunk, the layout
// readFrom reads; no product code writes it any more.
func writeGobChunk(t *testing.T, path string, rows []goldenRow) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	bw.WriteString(persistHeader + "\n")
	enc := gob.NewEncoder(bw)
	err = enc.Encode(len(rows))
	for _, r := range rows {
		if err == nil {
			err = enc.Encode(wireEntry{TimeNanos: r.e.Time.UnixNano(), Drift: r.e.Drift, SampleID: r.e.SampleID, Attrs: r.e.Attrs, Sample: r.vec})
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
}
