package driftlog

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
	"time"
)

// TestSampleColumnFollowsItsRow: a vector lives and dies with its row.
// Compaction drops the vectors of the rows it removes and renumbers the
// rest, rows appended afterwards land beside them, and the Stats
// counters see both. (A WAL round trip keeps every vector on its row:
// TestWALRoundTrip, TestWALExplicitRotateAndCompact.)
func TestSampleColumnFollowsItsRow(t *testing.T) {
	s := NewStore()
	for i := 0; i < 6; i++ {
		s.appendColumns(walSampled(i*10, 10))
	}
	_, before, _ := s.All().Samples(nil)
	if st := s.Stats(); st.Samples != 40 || st.SamplesAdded != 40 || len(before) != 40 {
		t.Fatalf("before compaction: stats %+v, view %d vectors", st, len(before))
	}

	// walBatch stamps row k at base+k seconds: the first 25 rows go.
	cutoff := time.Date(2026, 1, 2, 3, 0, 25, 0, time.UTC)
	if removed := s.Compact(cutoff); removed != 25 {
		t.Fatalf("removed %d rows, want 25", removed)
	}
	ids, xs, _ := s.All().Samples(nil)
	for i, id := range ids {
		if id < 25 {
			t.Fatalf("compacted row's sample %d still in the view", id)
		}
		if !reflect.DeepEqual(xs[i], sampleVec(id)) {
			t.Fatalf("sample %d: vector %v, want %v", id, xs[i], sampleVec(id))
		}
	}
	if st := s.Stats(); st.Samples != len(ids) || st.Samples != 23 || st.SamplesAdded != 40 {
		t.Fatalf("after compaction: stats %+v, view %d vectors", st, len(ids))
	}

	// Rows appended after a compaction land beside the renumbered ones.
	s.appendColumns(walSampled(60, 5))
	ids, xs, _ = s.All().Samples(nil)
	if st := s.Stats(); st.Samples != 26 || len(ids) != 26 || !reflect.DeepEqual(xs[25], sampleVec(63)) {
		t.Fatalf("after appending: stats %+v, view %d vectors", st, len(ids))
	}
}

// TestDecodeSampleSectionRejects: every malformed sample section is an
// error, reported before the claimed dimension is allocated.
func TestDecodeSampleSectionRejects(t *testing.T) {
	vec := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	decode := func(p []byte) ([][]float64, int, error) {
		d := &reader{p: p}
		x, err := decodeSampleSection(d, 3)
		return x, len(p) - len(d.p), err
	}
	good := appendSampleSection(nil, [][]float64{nil, {1, 2}, {3}})
	if got, n, err := decode(good); err != nil || n != len(good) ||
		!reflect.DeepEqual(got, [][]float64{nil, {1, 2}, {3}}) {
		t.Fatalf("good section: %v, %d of %d bytes, %v", got, n, len(good), err)
	}
	if got, n, err := decode([]byte{0}); err != nil || n != 1 || got != nil {
		t.Fatalf("empty section: %v %d %v", got, n, err)
	}
	cases := map[string][]byte{
		"empty":                nil,
		"count above rows":     {4},
		"row out of range":     cat([]byte{1, 3, 1}, vec(1)),
		"rows not increasing":  cat([]byte{2, 1, 1}, vec(1), []byte{1, 1}, vec(2)),
		"dim beyond payload":   cat([]byte{1, 0, 3}, vec(1, 2)),
		"huge dim claim":       cat([]byte{1, 0}, binary.AppendUvarint(nil, math.MaxUint64>>1), vec(1)),
		"truncated row varint": {1, 0x80},
		"truncated dim":        {1, 0},
	}
	for name, p := range cases {
		if _, _, err := decode(p); err == nil {
			t.Errorf("%s: decoded %x", name, p)
		}
	}
	// Inside a frame, a bad section fails the whole frame.
	rec, err := appendRecord(nil, walSampled(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	payload := rec[8:]
	payload[len(payload)-8*2-2] = 7 // the last vector's row index
	binary.LittleEndian.PutUint32(payload[10:], crc32.Checksum(payload[frameHeaderSize:], castagnoli))
	var fe *FrameError
	if _, err := DecodeFrame(payload, 0); !errors.As(err, &fe) {
		t.Fatalf("frame with an out-of-range sample row: %v", err)
	}
}

// TestReplayKeepsSampleOrder: the cloud assigns sample IDs and appends to
// the WAL and then to the store with no lock spanning the two, so two
// concurrent batches can reach the store in the opposite order from the
// WAL. A cause's pool must not depend on that race: the restarted store,
// which replays in WAL order, returns the samples in the order the live
// store did.
func TestReplayKeepsSampleOrder(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, NewStore(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := walSampled(0, 6), walSampled(6, 6)
	live := NewStore()
	for _, batch := range []*ColumnarBatch{a, b} {
		if err := w.AppendColumns(batch); err != nil {
			t.Fatal(err)
		}
	}
	live.appendColumns(b)
	live.appendColumns(a)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := NewStore()
	w2, err := OpenWAL(dir, replayed, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	wids, wxs, _ := live.All().Samples(nil)
	gids, gxs, _ := replayed.All().Samples(nil)
	if !reflect.DeepEqual(wids, gids) || !reflect.DeepEqual(wxs, gxs) {
		t.Fatalf("replayed sample order %v, live %v", gids, wids)
	}
	wids, _ = live.All().SampleIDs([]Cond{{AttrWeather, "snow"}})
	gids, _ = replayed.All().SampleIDs([]Cond{{AttrWeather, "snow"}})
	if !reflect.DeepEqual(wids, gids) || len(wids) == 0 {
		t.Fatalf("replayed snow sample IDs %v, live %v", gids, wids)
	}
}
