package driftlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// walTime is the timestamp walBatch gives sequence number k: k seconds
// after a fixed base.
func walTime(k int) time.Time {
	return time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC).Add(time.Duration(k) * time.Second)
}

// walBatch fabricates a deterministic ingest batch: n entries starting
// at sequence number seq, with device/weather attributes and a drift
// flag pattern that exercises both bitmap polarities.
func walBatch(seq, n int) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		k := seq + i
		cond := "clear"
		if k%3 == 0 {
			cond = "snow"
		}
		entries[i] = Entry{
			Time: walTime(k),
			Attrs: map[string]string{
				AttrDevice:  fmt.Sprintf("dev_%d", k%5),
				AttrWeather: cond,
				"seq":       fmt.Sprintf("%d", k),
			},
			Drift:    k%3 == 0,
			SampleID: int64(k),
		}
	}
	return entries
}

// walSampled is walBatch as the cloud ingests it: two rows in three carry
// a vector (sampleVec of their sample ID), the rest link none.
func walSampled(seq, n int) *ColumnarBatch {
	entries := walBatch(seq, n)
	for i := range entries {
		if (seq+i)%3 == 1 {
			entries[i].SampleID = -1
		}
	}
	return withSamples(entries)
}

// requireStoresEqual asserts two stores are query-identical: same rows
// in the same canonical order, and the same answers from both the
// bitset-indexed and scan aggregation paths.
func requireStoresEqual(t *testing.T, want, got *Store) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("row count: want %d got %d", want.Len(), got.Len())
	}
	for i := 0; i < want.Len(); i++ {
		we, ge := want.Entry(i), got.Entry(i)
		if !we.Time.Equal(ge.Time) || we.Drift != ge.Drift || we.SampleID != ge.SampleID {
			t.Fatalf("row %d: want %+v got %+v", i, we, ge)
		}
		if len(we.Attrs) != len(ge.Attrs) {
			t.Fatalf("row %d attrs: want %v got %v", i, we.Attrs, ge.Attrs)
		}
		for k, v := range we.Attrs {
			if ge.Attrs[k] != v {
				t.Fatalf("row %d attr %q: want %q got %q", i, k, v, ge.Attrs[k])
			}
		}
	}
	wv, gv := want.All(), got.All()
	wids, wxs, _ := wv.Samples(nil)
	gids, gxs, _ := gv.Samples(nil)
	if !reflect.DeepEqual(wids, gids) || !reflect.DeepEqual(wxs, gxs) {
		t.Fatalf("sample column: want %d vectors %v got %d %v", len(wxs), wids, len(gxs), gids)
	}
	wav := wv.AttrValueCounts(wv.DriftOverlay())
	gav := gv.AttrValueCounts(gv.DriftOverlay())
	if len(wav) != len(gav) {
		t.Fatalf("AttrValueCounts attrs: want %d got %d", len(wav), len(gav))
	}
	for attr, vals := range wav {
		for val, wc := range vals {
			if gc := gav[attr][val]; gc != wc {
				t.Fatalf("AttrValueCounts[%s][%s]: want %+v got %+v", attr, val, wc, gc)
			}
		}
	}
	// Index equality: the bitset path on the replayed store must agree
	// with the scan reference (which ignores the index entirely).
	for _, cond := range []Cond{{AttrWeather, "snow"}, {AttrDevice, "dev_2"}} {
		idx, err := gv.Count([]Cond{cond}, nil)
		if err != nil {
			t.Fatalf("Count(%v): %v", cond, err)
		}
		scan, err := refCount(gv, []Cond{cond}, nil)
		if err != nil {
			t.Fatalf("refCount(%v): %v", cond, err)
		}
		if idx != scan {
			t.Fatalf("replayed index disagrees with scan for %v: index %+v scan %+v", cond, idx, scan)
		}
		ref, err := wv.Count([]Cond{cond}, nil)
		if err != nil {
			t.Fatalf("reference Count(%v): %v", cond, err)
		}
		if idx != ref {
			t.Fatalf("Count(%v): want %+v got %+v", cond, ref, idx)
		}
	}
}

func listWALFiles(t *testing.T, dir string) (segs, snaps []string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	for _, e := range ents {
		switch {
		case strings.HasSuffix(e.Name(), ".seg"):
			segs = append(segs, e.Name())
		case strings.HasSuffix(e.Name(), ".driftlog"):
			snaps = append(snaps, e.Name())
		}
	}
	sort.Strings(segs)
	sort.Strings(snaps)
	return segs, snaps
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	live := NewStore()
	w, err := OpenWAL(dir, live, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 7; i++ {
		batch := walSampled(i*9, 9)
		if err := w.AppendColumns(batch); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		live.appendColumns(batch)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	replayed := NewStore()
	w2, err := OpenWAL(dir, replayed, WALOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	rec := w2.Recovery()
	if rec.TornTail {
		t.Fatalf("unexpected torn tail: %+v", rec)
	}
	if rec.Records != 7 || rec.Rows != 63 {
		t.Fatalf("recovery: want 7 records / 63 rows, got %+v", rec)
	}
	requireStoresEqual(t, live, replayed)
}

func TestWALAppendEmptyAndClosed(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, NewStore(), WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := w.AppendColumns(ColumnsFromEntries(nil)); err != nil {
		t.Fatalf("empty append: %v", err)
	}
	if st := w.Stats(); st.Appends != 0 {
		t.Fatalf("empty append counted: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := w.AppendColumns(ColumnsFromEntries(walBatch(0, 1))); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("append after close: want ErrWALClosed, got %v", err)
	}
}

func TestWALSever(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, NewStore(), WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := w.AppendColumns(ColumnsFromEntries(walBatch(0, 4))); err != nil {
		t.Fatalf("append: %v", err)
	}
	w.Sever()
	w.Sever() // idempotent
	if err := w.AppendColumns(ColumnsFromEntries(walBatch(4, 1))); !errors.Is(err, ErrWALSevered) {
		t.Fatalf("append after sever: want ErrWALSevered, got %v", err)
	}
	// The pre-sever append was acked, so it must replay.
	replayed := NewStore()
	w2, err := OpenWAL(dir, replayed, WALOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if replayed.Len() != 4 {
		t.Fatalf("rows after sever+replay: want 4 got %d", replayed.Len())
	}
}

func TestWALRotation(t *testing.T) {
	dir := t.TempDir()
	live := NewStore()
	// Tiny threshold: every batch crosses it, so every append rotates.
	w, err := OpenWAL(dir, live, WALOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 5; i++ {
		batch := walBatch(i*3, 3)
		if err := w.AppendColumns(ColumnsFromEntries(batch)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		live.AppendBatch(batch)
	}
	st := w.Stats()
	if st.Rotations != 5 {
		t.Fatalf("rotations: want 5 got %d", st.Rotations)
	}
	if st.SealedSegments != 5 {
		t.Fatalf("sealed: want 5 got %d", st.SealedSegments)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs, _ := listWALFiles(t, dir)
	if len(segs) != 6 { // 5 sealed + 1 empty active
		t.Fatalf("segment files: want 6 got %d (%v)", len(segs), segs)
	}

	replayed := NewStore()
	w2, err := OpenWAL(dir, replayed, WALOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if rec := w2.Recovery(); rec.Segments != 6 || rec.Rows != 15 {
		t.Fatalf("recovery: %+v", rec)
	}
	requireStoresEqual(t, live, replayed)
}

// TestWALExplicitRotateAndCompact: a compaction pass deletes exactly the
// sealed files every row of which is before the store's cutoff — none
// before any cutoff is set, then the oldest while the next one straddles
// the cutoff, an empty sealed segment under any cutoff — and replay
// afterwards restores the rows the cutoff keeps, vectors included.
func TestWALExplicitRotateAndCompact(t *testing.T) {
	dir := t.TempDir()
	live := NewStore()
	w, err := OpenWAL(dir, live, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ingest := func(b *ColumnarBatch) {
		t.Helper()
		if err := w.AppendColumns(b); err != nil {
			t.Fatalf("append: %v", err)
		}
		live.appendColumns(b)
	}
	rotate := func() {
		t.Helper()
		if err := w.Rotate(); err != nil {
			t.Fatalf("rotate: %v", err)
		}
	}
	compact := func(wantSealed int, wantCompactions int64, wantSegs ...uint64) {
		t.Helper()
		if err := w.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if st := w.Stats(); st.SealedSegments != wantSealed || st.Compactions != wantCompactions {
			t.Fatalf("stats %+v, want %d sealed after %d compactions", st, wantSealed, wantCompactions)
		}
		var want []string
		for _, idx := range wantSegs {
			want = append(want, segName(idx))
		}
		if segs, snaps := listWALFiles(t, dir); !reflect.DeepEqual(segs, want) || len(snaps) != 0 {
			t.Fatalf("files %v %v, want segments %v and no snapshot", segs, snaps, want)
		}
	}
	for i := 0; i < 3; i++ {
		ingest(walSampled(i*4, 4)) // segment i+1 holds rows 4i..4i+3
		rotate()
	}
	compact(3, 0, 1, 2, 3, 4) // no cutoff yet: nothing expires

	live.Compact(walTime(6)) // segment 2 (rows 4-7) straddles the cutoff
	compact(2, 1, 2, 3, 4)

	ingest(walSampled(12, 4))
	rotate()
	rotate()                  // seals segment 5 empty
	compact(3, 2, 2, 3, 4, 6) // which any cutoff expires
	compact(3, 2, 2, 3, 4, 6) // and a pass with nothing to delete counts nothing
	live.Compact(walTime(12)) // now every row of segments 2 and 3 is before it
	compact(1, 3, 4, 6)

	ingest(walSampled(16, 4))
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	replayed := NewStore()
	w2, err := OpenWAL(dir, replayed, WALOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if rec := w2.Recovery(); rec.Segments != 2 || rec.Rows != 8 {
		t.Fatalf("recovery: %+v", rec)
	}
	requireStoresEqual(t, live, replayed)
}

// TestWALAutoCompaction: with CompactSegments set, rotations run the
// compaction pass in the background. Once the store has a cutoff, those
// passes delete the sealed files it expired, and replay restores exactly
// the rows at or after it.
func TestWALAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	live := NewStore()
	w, err := OpenWAL(dir, live, WALOptions{SegmentBytes: 64, CompactSegments: 3})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 9; i++ {
		batch := walBatch(i*3, 3) // every append rotates: segment i+1 holds batch i
		if err := w.AppendColumns(ColumnsFromEntries(batch)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		live.AppendBatch(batch)
		if i == 4 {
			live.Compact(walTime(9)) // batches 0-2 expire
		}
	}
	if err := w.Close(); err != nil { // waits for background compaction
		t.Fatalf("close: %v", err)
	}
	if err := w.CompactionErr(); err != nil {
		t.Fatalf("background compaction: %v", err)
	}
	if st := w.Stats(); st.Compactions == 0 || st.SealedSegments != 6 {
		t.Fatalf("auto-compaction did not expire segments 1-3: %+v", st)
	}
	if segs, _ := listWALFiles(t, dir); len(segs) != 7 || segs[0] != segName(4) {
		t.Fatalf("segments %v, want 4-10", segs)
	}
	replayed := NewStore()
	w2, err := OpenWAL(dir, replayed, WALOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	requireStoresEqual(t, live, replayed)
}

// TestWALCompactionExpiry pins the expiry rule's edges: a sealed file
// goes only once its newest row is before the store's cutoff, so a file
// straddling the cutoff stays; a legacy snapshot is one sealed file and
// expires as a whole; a read-only WAL refuses and leaves the directory as
// it was.
func TestWALCompactionExpiry(t *testing.T) {
	t.Run("straddling file kept", func(t *testing.T) {
		dir := t.TempDir()
		s := NewStore()
		w, err := OpenWAL(dir, s, WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		for _, seq := range []int{0, 4} {
			if err := w.AppendColumns(walSampled(seq, 4)); err != nil {
				t.Fatal(err)
			}
			if err := w.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			cutoff int
			segs   []string
		}{
			{3, []string{segName(1), segName(2), segName(3)}}, // row 3, segment 1's newest, is kept
			{4, []string{segName(2), segName(3)}},
		} {
			s.Compact(walTime(c.cutoff))
			if err := w.Compact(); err != nil {
				t.Fatal(err)
			}
			if segs, _ := listWALFiles(t, dir); !reflect.DeepEqual(segs, c.segs) {
				t.Fatalf("cutoff at row %d: segments %v, want %v", c.cutoff, segs, c.segs)
			}
		}
	})

	t.Run("legacy snapshot expires whole", func(t *testing.T) {
		dir := t.TempDir()
		var rows []goldenRow
		for _, e := range walBatch(0, 4) {
			rows = append(rows, goldenRow{e, sampleVec(e.SampleID)})
		}
		writeGobChunk(t, filepath.Join(dir, snapName(0)), rows)
		s := NewStore()
		w, err := OpenWAL(dir, s, WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b := walSampled(4, 4)
		if err := w.AppendColumns(b); err != nil {
			t.Fatal(err)
		}
		s.appendColumns(b)
		for _, c := range []struct {
			cutoff int
			snaps  int
		}{{2, 1}, {4, 0}} {
			s.Compact(walTime(c.cutoff))
			if err := w.Compact(); err != nil {
				t.Fatal(err)
			}
			if _, snaps := listWALFiles(t, dir); len(snaps) != c.snaps {
				t.Fatalf("cutoff at row %d: snapshots %v, want %d", c.cutoff, snaps, c.snaps)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		replayed := NewStore()
		w2, err := OpenWAL(dir, replayed, WALOptions{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if rec := w2.Recovery(); rec.SnapshotRows != 0 || rec.Rows != 4 {
			t.Fatalf("recovery %+v, want only the segment's 4 rows", rec)
		}
		requireStoresEqual(t, s, replayed)
	})

	t.Run("read-only refuses", func(t *testing.T) {
		dir := t.TempDir()
		w, err := OpenWAL(dir, NewStore(), WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range []int{0, 4} {
			if err := w.AppendColumns(walSampled(seq, 4)); err != nil {
				t.Fatal(err)
			}
			if err := w.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		before, _ := listWALFiles(t, dir)
		s := NewStore()
		ro, err := OpenWAL(dir, s, WALOptions{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		s.Compact(walTime(100))
		if err := ro.Compact(); !errors.Is(err, ErrWALReadOnly) {
			t.Fatalf("read-only compact: want ErrWALReadOnly, got %v", err)
		}
		if after, snaps := listWALFiles(t, dir); !reflect.DeepEqual(after, before) || len(snaps) != 0 {
			t.Fatalf("read-only compact changed the directory: %v -> %v %v", before, after, snaps)
		}
	})
}

func TestWALTornTailRecovery(t *testing.T) {
	cases := []struct {
		name string
		// mutate damages the final segment after a clean close.
		mutate func(t *testing.T, path string)
	}{
		{"garbage appended", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			// A frame header claiming more payload than exists.
			if _, err := f.Write([]byte{0xFF, 0x00, 0x00, 0x00, 1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
		{"truncated mid-record", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-5); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped payload bit", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-1] ^= 0x40
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenWAL(dir, NewStore(), WALOptions{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			good := walBatch(0, 6)
			if err := w.AppendColumns(ColumnsFromEntries(good[:3])); err != nil {
				t.Fatalf("append: %v", err)
			}
			if err := w.AppendColumns(ColumnsFromEntries(good[3:])); err != nil {
				t.Fatalf("append: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			segs, _ := listWALFiles(t, dir)
			last := filepath.Join(dir, segs[len(segs)-1])
			tc.mutate(t, last)
			goodSize := int64(len(walMagic))
			if fi, err := os.Stat(filepath.Join(dir, segs[0])); err == nil {
				goodSize = fi.Size()
			}

			// Damage in the final segment: tolerated, truncated, reported.
			// The second record is only torn in the cases that damage it;
			// assert the recovered prefix is a prefix of the good batch.
			replayed := NewStore()
			w2, err := OpenWAL(dir, replayed, WALOptions{})
			if err != nil {
				t.Fatalf("reopen with torn tail: %v", err)
			}
			rec := w2.Recovery()
			if !rec.TornTail {
				t.Fatalf("torn tail not reported: %+v", rec)
			}
			if replayed.Len() > 6 || replayed.Len() < 3 && tc.name != "flipped payload bit" {
				t.Fatalf("recovered %d rows, want a sane prefix", replayed.Len())
			}
			for i := 0; i < replayed.Len(); i++ {
				if got, want := replayed.Entry(i).Attrs["seq"], good[i].Attrs["seq"]; got != want {
					t.Fatalf("row %d: got seq %s want %s", i, got, want)
				}
			}
			if err := w2.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			_ = goodSize

			// Third open: the tail was truncated (or removed), so recovery
			// is now clean and yields the same rows.
			again := NewStore()
			w3, err := OpenWAL(dir, again, WALOptions{})
			if err != nil {
				t.Fatalf("third open: %v", err)
			}
			defer w3.Close()
			if rec := w3.Recovery(); rec.TornTail {
				t.Fatalf("torn tail reported twice — truncation did not stick: %+v", rec)
			}
			if again.Len() != replayed.Len() {
				t.Fatalf("row count changed across reopen: %d vs %d", again.Len(), replayed.Len())
			}
		})
	}
}

func TestWALCorruptSealedSegmentRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, NewStore(), WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := w.AppendColumns(ColumnsFromEntries(walBatch(0, 4))); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if err := w.AppendColumns(ColumnsFromEntries(walBatch(4, 4))); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs, _ := listWALFiles(t, dir)
	if len(segs) < 2 {
		t.Fatalf("need ≥2 segments, got %v", segs)
	}
	// Corrupt the FIRST (sealed, non-final) segment: not a torn tail,
	// so replay must refuse with a typed error.
	first := filepath.Join(dir, segs[0])
	b, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(first, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenWAL(dir, NewStore(), WALOptions{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
	if ce.Path != first {
		t.Fatalf("corrupt path: want %s got %s", first, ce.Path)
	}
	if ce.Offset == 0 {
		t.Fatalf("corrupt offset should be past the header: %+v", ce)
	}
}

func TestWALBadMagicRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, NewStore(), WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := w.AppendColumns(ColumnsFromEntries(walBatch(0, 2))); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs, _ := listWALFiles(t, dir)
	first := filepath.Join(dir, segs[0])
	b, _ := os.ReadFile(first)
	copy(b, "BOGUS!!!")
	if err := os.WriteFile(first, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenWAL(dir, NewStore(), WALOptions{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError for bad magic, got %v", err)
	}
}

// TestWALCorruptSnapshotRefusesOpen: a legacy snapshot in the segment
// layout (what an earlier version's fold wrote) was published atomically,
// so a torn one is corruption, not a torn tail.
func TestWALCorruptSnapshotRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, NewStore(), WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := w.AppendColumns(ColumnsFromEntries(walBatch(0, 6))); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	b, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segName(1))); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName(1))
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenWAL(dir, NewStore(), WALOptions{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError for truncated snapshot, got %v", err)
	}
	if ce.Path != path {
		t.Fatalf("corrupt path: want %s got %s", path, ce.Path)
	}
}

func TestWALReadOnly(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, NewStore(), WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := w.AppendColumns(ColumnsFromEntries(walBatch(0, 5))); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segsBefore, _ := listWALFiles(t, dir)

	s := NewStore()
	ro, err := OpenWAL(dir, s, WALOptions{ReadOnly: true})
	if err != nil {
		t.Fatalf("ro open: %v", err)
	}
	if s.Len() != 5 {
		t.Fatalf("ro replay rows: want 5 got %d", s.Len())
	}
	if err := ro.AppendColumns(ColumnsFromEntries(walBatch(5, 1))); !errors.Is(err, ErrWALReadOnly) {
		t.Fatalf("ro append: want ErrWALReadOnly, got %v", err)
	}
	segsAfter, _ := listWALFiles(t, dir)
	if len(segsAfter) != len(segsBefore) {
		t.Fatalf("read-only open mutated the directory: %v -> %v", segsBefore, segsAfter)
	}
}

func TestWALConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	live := NewStore()
	w, err := OpenWAL(dir, live, WALOptions{SegmentBytes: 2048})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const writers, batches, perBatch = 4, 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := walBatch(g*1000+b*perBatch, perBatch)
				if err := w.AppendColumns(ColumnsFromEntries(batch)); err != nil {
					errs <- err
					return
				}
				live.AppendBatch(batch)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	replayed := NewStore()
	w2, err := OpenWAL(dir, replayed, WALOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	// Concurrent appends interleave, so row order may differ between the
	// live store and the WAL; the aggregate contract still holds.
	if replayed.Len() != live.Len() {
		t.Fatalf("rows: want %d got %d", live.Len(), replayed.Len())
	}
	lv, rv := live.All(), replayed.All()
	lav := lv.AttrValueCounts(lv.DriftOverlay())
	rav := rv.AttrValueCounts(rv.DriftOverlay())
	for attr, vals := range lav {
		for val, lc := range vals {
			if rc := rav[attr][val]; rc != lc {
				t.Fatalf("AttrValueCounts[%s][%s]: want %+v got %+v", attr, val, lc, rc)
			}
		}
	}
}

// TestWALConcurrentExpiry runs compaction passes, explicit and
// background, while writers append and rotate: the sealed list they share
// stays consistent (run it under -race), and no row at or after the
// cutoff is lost.
func TestWALConcurrentExpiry(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{SegmentBytes: 256, CompactSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	const writers, batches, perBatch = 4, 24, 3
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if err := w.AppendColumns(ColumnsFromEntries(walBatch(b*perBatch, perBatch))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	const cutoff = batches * perBatch / 2
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k <= cutoff; k += perBatch {
			s.Compact(walTime(k))
			if err := w.Compact(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.CompactionErr(); err != nil {
		t.Fatalf("background compaction: %v", err)
	}
	replayed := NewStore()
	if _, err := OpenWAL(dir, replayed, WALOptions{ReadOnly: true}); err != nil {
		t.Fatal(err)
	}
	if got, want := replayed.Window(walTime(cutoff), time.Time{}).Len(), writers*(batches*perBatch-cutoff); got != want {
		t.Fatalf("%d rows at or after the cutoff replayed, want %d", got, want)
	}
	if st := w.Stats(); st.Compactions == 0 {
		t.Fatalf("no pass deleted a file: %+v", st)
	}
}

func TestWALFrameRoundTrip(t *testing.T) {
	entries := walBatch(0, 17)
	frame := appendWALFrameColumns(nil, ColumnsFromEntries(entries))
	if len(frame) < 8 {
		t.Fatalf("frame too short: %d", len(frame))
	}
	got, _, err := decodeWALPayload(frame[8:])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(entries) {
		t.Fatalf("entries: want %d got %d", len(entries), len(got))
	}
	for i := range entries {
		if !got[i].Time.Equal(entries[i].Time) || got[i].Drift != entries[i].Drift ||
			got[i].SampleID != entries[i].SampleID {
			t.Fatalf("entry %d: want %+v got %+v", i, entries[i], got[i])
		}
		for k, v := range entries[i].Attrs {
			if got[i].Attrs[k] != v {
				t.Fatalf("entry %d attr %q: want %q got %q", i, k, v, got[i].Attrs[k])
			}
		}
	}
}

func TestWALDecodeRejectsMalformed(t *testing.T) {
	good := appendWALFrameColumns(nil, ColumnsFromEntries(walBatch(0, 2)))[8:]
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"bad version", append([]byte{99}, good[1:]...)},
		{"truncated", good[:len(good)-3]},
		{"trailing bytes", append(append([]byte{}, good...), 0xAA)},
		{"bomb entry count", []byte{2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}},
		{"unknown flags", func() []byte {
			// Rebuild a 1-entry frame and poke the flags byte, which sits
			// right after the time varint (payload layout: version, count,
			// varint time, flags, ...).
			one := appendWALFrameColumns(nil, ColumnsFromEntries(walBatch(0, 1)))[8:]
			i := 2
			for one[i]&0x80 != 0 {
				i++
			}
			i++ // past the varint's final byte
			one[i] = 0x7C
			return one
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := decodeWALPayload(tc.payload); err == nil {
				t.Fatalf("decode accepted malformed payload")
			}
		})
	}
}

func TestWALStats(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	w, err := OpenWAL(dir, s, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer w.Close()
	if st := w.Stats(); st.ActiveSegment != 1 || st.SealedSegments != 0 || st.Compactions != 0 {
		t.Fatalf("fresh stats: %+v", st)
	}
	if err := w.AppendColumns(ColumnsFromEntries(walBatch(0, 3))); err != nil {
		t.Fatalf("append: %v", err)
	}
	st := w.Stats()
	if st.Appends != 1 || st.AppendedBytes <= 8 {
		t.Fatalf("append stats: %+v", st)
	}
	if st.ActiveBytes <= int64(len(walMagic)) {
		t.Fatalf("active bytes: %+v", st)
	}
	if w.Dir() != dir {
		t.Fatalf("dir: want %s got %s", dir, w.Dir())
	}
	// Expiry shows in the counters: the rotated segment goes once the
	// store's cutoff passes its newest row.
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	s.Compact(walTime(3))
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.ActiveSegment != 2 || st.SealedSegments != 0 || st.Rotations != 1 || st.Compactions != 1 {
		t.Fatalf("stats after expiry: %+v", st)
	}
}

// TestWALAckedWideBatchReplays: an acked batch is a replayable batch.
// 4,096 rows × 300 attribute columns with one 100-byte value each is a
// 1.27 MB frame, far under the ingest body cap; spelled out row by row
// (every name and value repeated per row) it would be ~128 MB, past the
// record bound replay accepts.
func TestWALAckedWideBatchReplays(t *testing.T) {
	const rows, cols = 4096, 300
	b := &ColumnarBatch{Times: make([]int64, rows), Drift: make([]bool, rows), SampleIDs: make([]int64, rows)}
	ids := make([]uint32, rows) // shared: every row carries every column's one value
	for r := range ids {
		ids[r] = 1
		b.Times[r] = int64(r) * int64(time.Second)
		b.Drift[r] = r%3 == 0
		b.SampleIDs[r] = -1
	}
	for c := 0; c < cols; c++ {
		value := strings.Repeat(string(rune('a'+c%26)), 100)
		b.Cols = append(b.Cols, ColumnData{Name: fmt.Sprintf("attr_%03d", c), Dict: []string{"", value}, IDs: ids})
	}
	dir := t.TempDir()
	w, err := OpenWAL(dir, NewStore(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendColumns(b); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := NewStore()
	w2, err := OpenWAL(dir, replayed, WALOptions{ReadOnly: true})
	if err != nil {
		t.Fatalf("reopen after an acked batch: %v", err)
	}
	if rec := w2.Recovery(); rec.Rows != rows || rec.TornTail {
		t.Fatalf("recovery %+v, want %d rows", rec, rows)
	}
	if got := len(replayed.Attributes()); got != cols {
		t.Fatalf("replayed %d attributes, want %d", got, cols)
	}
	for _, r := range []int{0, rows - 1} {
		if got, want := replayed.Entry(r), b.Entry(r); !sameEntry(got, want) {
			t.Fatalf("row %d: replayed %+v, want %+v", r, got, want)
		}
	}
}

// oversizedBatch is a batch whose frame exceeds the record bound: 1,100
// rows sharing one 8,192-float vector carry 72 MB of samples. JSON ingest
// reaches such a batch from a body under the 64 MiB cap, because a zero
// is 2 bytes of JSON ("0,") and 8 bytes of float64.
func oversizedBatch() *ColumnarBatch {
	b := ColumnsFromEntries(walBatch(0, 1100))
	vec := make([]float64, 8192)
	b.Samples = make([][]float64, b.Rows())
	for i := range b.Samples {
		b.Samples[i] = vec
	}
	return b
}

// TestWALRefusesOversizedBatch: a batch too large for one record is
// refused with ErrFrameTooLarge before anything is written; the WAL is
// not poisoned, and the next batch is acked and replays.
func TestWALRefusesOversizedBatch(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, NewStore(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := w.Stats()
	if err := w.AppendColumns(oversizedBatch()); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized append: want ErrFrameTooLarge, got %v", err)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("refusal poisoned the WAL: %v", err)
	}
	if st := w.Stats(); st.ActiveBytes != before.ActiveBytes || st.Appends != 0 {
		t.Fatalf("refused batch wrote to the segment: %+v", st)
	}
	next := walSampled(2000, 3)
	if err := w.AppendColumns(next); err != nil {
		t.Fatalf("append after a refusal: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := NewStore()
	if _, err := OpenWAL(dir, replayed, WALOptions{ReadOnly: true}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	want := NewStore()
	want.appendColumns(next)
	requireStoresEqual(t, want, replayed)
}
