package driftlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
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
	wav := valueMap(wv.AttrValueCounts(wv.DriftOverlay()))
	gav := valueMap(gv.AttrValueCounts(gv.DriftOverlay()))
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

// listWALFiles returns the names of dir's files, sorted: the WAL
// creates nothing but segments.
func listWALFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
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

// TestWALReplayReorderedDictionaries: batches whose frame dictionaries list
// the same values in different orders replay into one store dictionary, ids
// given in first-seen order, and answer what the live store answers.
func TestWALReplayReorderedDictionaries(t *testing.T) {
	dir := t.TempDir()
	batches := reorderedBatches()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), fuzzSegment(batches...), 0o644); err != nil {
		t.Fatal(err)
	}
	live, replayed := NewStore(), NewStore()
	for _, b := range batches {
		live.appendColumns(b)
	}
	w, err := OpenWAL(dir, replayed, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := replayed.dicts[AttrWeather].vals; !reflect.DeepEqual(got, []string{"", "snow", "rain", "fog"}) {
		t.Fatalf("weather dictionary %q, want first-seen order", got)
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
	segs := listWALFiles(t, dir)
	if len(segs) != 6 { // 5 sealed + 1 empty active
		t.Fatalf("segment files: want 6 got %d (%v)", len(segs), segs)
	}

	// Replay keeps the 5 sealed segments and removes the empty one.
	replayed := NewStore()
	w2, err := OpenWAL(dir, replayed, WALOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if rec := w2.Recovery(); rec.Segments != 5 || rec.Rows != 15 {
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
		if segs := listWALFiles(t, dir); !reflect.DeepEqual(segs, want) {
			t.Fatalf("files %v, want segments %v", segs, want)
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
	if segs := listWALFiles(t, dir); len(segs) != 7 || segs[0] != segName(4) {
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

// TestWALCompactionExpiry pins the expiry rule's edge: a sealed file
// goes only once its newest row is before the store's cutoff, so a file
// straddling the cutoff stays.
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
			if segs := listWALFiles(t, dir); !reflect.DeepEqual(segs, c.segs) {
				t.Fatalf("cutoff at row %d: segments %v, want %v", c.cutoff, segs, c.segs)
			}
		}
	})
}

func TestWALTornTailRecovery(t *testing.T) {
	good := walBatch(0, 6)
	rec1, err := appendRecord(nil, ColumnsFromEntries(good[:3]))
	if err != nil {
		t.Fatal(err)
	}
	first := int64(len(walMagic) + len(rec1)) // the segment's size up to the end of record 1
	cases := []struct {
		name string
		// mutate damages the final segment after a clean close.
		mutate func(t *testing.T, path string)
		rows   int // the rows of the records that survive intact
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
		}, 6},
		{"truncated mid-record", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-5); err != nil {
				t.Fatal(err)
			}
		}, 3},
		{"flipped payload bit", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-1] ^= 0x40
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := OpenWAL(dir, NewStore(), WALOptions{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if err := w.AppendColumns(ColumnsFromEntries(good[:3])); err != nil {
				t.Fatalf("append: %v", err)
			}
			clean := w.Stats().ActiveBytes
			if err := w.AppendColumns(ColumnsFromEntries(good[3:])); err != nil {
				t.Fatalf("append: %v", err)
			}
			full := w.Stats().ActiveBytes
			if err := w.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if clean != first {
				t.Fatalf("record 1 ends at %d, want %d", clean, first)
			}
			last := filepath.Join(dir, listWALFiles(t, dir)[0])
			tc.mutate(t, last)
			fi, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			keep := first
			if tc.rows == len(good) {
				keep = full
			}

			// Damage in the final segment: tolerated, truncated to the
			// intact records, reported with the bytes it dropped.
			replayed := NewStore()
			w2, err := OpenWAL(dir, replayed, WALOptions{})
			if err != nil {
				t.Fatalf("reopen with torn tail: %v", err)
			}
			rec := w2.Recovery()
			if !rec.TornTail || rec.TornFile != last || rec.TornBytes != fi.Size()-keep {
				t.Fatalf("recovery %+v, want a torn tail of %d bytes in %s", rec, fi.Size()-keep, last)
			}
			if replayed.Len() != tc.rows {
				t.Fatalf("recovered %d rows, want %d", replayed.Len(), tc.rows)
			}
			for i := 0; i < replayed.Len(); i++ {
				if got, want := replayed.Entry(i).Attrs["seq"], good[i].Attrs["seq"]; got != want {
					t.Fatalf("row %d: got seq %s want %s", i, got, want)
				}
			}
			if fi, err := os.Stat(last); err != nil {
				t.Fatal(err)
			} else if fi.Size() != keep {
				t.Fatalf("torn segment is %d bytes, want it truncated to %d", fi.Size(), keep)
			}
			if err := w2.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			// Third open: the tail was truncated, so recovery is now clean
			// and yields the same rows.
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
	segs := listWALFiles(t, dir)
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
	segs := listWALFiles(t, dir)
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

// TestWALCorruptSnapshotRefusesOpen: a snapshot file, which earlier
// versions wrote and this one never reads, refuses the open whatever it
// holds — here the frame records of a whole segment — before replay
// reads or removes anything.
func TestWALCorruptSnapshotRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, NewStore(), WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := w.AppendColumns(ColumnsFromEntries(walBatch(0, 6))); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	b, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snapshot-0000000000000001.driftlog")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	_, err = OpenWAL(dir, NewStore(), WALOptions{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError for a snapshot file, got %v", err)
	}
	if ce.Path != path {
		t.Fatalf("corrupt path: want %s got %s", path, ce.Path)
	}
	// Segment 2 is empty: a successful replay would have removed it.
	if after := dirFiles(t, dir); !maps.Equal(before, after) {
		t.Fatalf("the refused open changed the directory: %d files, now %d", len(before), len(after))
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
	lav := valueMap(lv.AttrValueCounts(lv.DriftOverlay()))
	rav := valueMap(rv.AttrValueCounts(rv.DriftOverlay()))
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
	w2, err := OpenWAL(dir, replayed, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got, want := replayed.Window(walTime(cutoff), time.Time{}).Len(), writers*(batches*perBatch-cutoff); got != want {
		t.Fatalf("%d rows at or after the cutoff replayed, want %d", got, want)
	}
	if st := w.Stats(); st.Compactions == 0 {
		t.Fatalf("no pass deleted a file: %+v", st)
	}
}

func TestWALFrameRoundTrip(t *testing.T) {
	entries := walBatch(0, 17)
	rec, err := appendRecord(nil, ColumnsFromEntries(entries))
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeFrame(rec[8:], 0)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got := b.Entries()
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

// TestWALDecodeRejectsMalformed: a record whose length and CRC check out
// holds what the WAL wrote, so a payload that does not decode as a frame
// is corruption, never a torn write — in the tail segment too. Each
// payload below ends a tail segment after two intact 4-row frames: the
// open fails with a *CorruptError at its offset and leaves the file as
// it was, rather than cutting the file there and replaying the 8 rows
// before it.
func TestWALDecodeRejectsMalformed(t *testing.T) {
	rec, err := appendRecord(nil, walSampled(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	frame := rec[8:]
	poke := func(i int, v byte) []byte {
		p := bytes.Clone(frame)
		p[i] = v
		return p
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"bad version", poke(4, 99)}, // a future frame version; the frame CRC covers only what follows the header
		{"truncated", frame[:len(frame)-3]},
		{"trailing bytes", append(bytes.Clone(frame), 0xAA)},
		{"bomb entry count", []byte{2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}}, // a version-2 row record claiming 2^32 rows
		{"unknown flags", poke(5, 0x7C)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seg := fuzzSegment(walSampled(0, 4), walSampled(4, 4))
			off := int64(len(seg))
			seg = binary.LittleEndian.AppendUint32(seg, uint32(len(tc.payload)))
			seg = binary.LittleEndian.AppendUint32(seg, crc32.Checksum(tc.payload, castagnoli))
			seg = append(seg, tc.payload...)
			dir := t.TempDir()
			path := filepath.Join(dir, segName(1))
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			s := NewStore()
			w, err := OpenWAL(dir, s, WALOptions{})
			if tc.payload == nil {
				// A zero length fails the length check, as a torn write
				// can: the tail drops the record.
				if err != nil || !w.Recovery().TornTail || s.Len() != 8 {
					t.Fatalf("zero-length tail record: %v, %d rows, want a torn tail after 8", err, s.Len())
				}
				w.Close()
				return
			}
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Path != path || ce.Offset != off {
				t.Fatalf("open: %v, want a *CorruptError in %s at offset %d", err, path, off)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, seg) {
				t.Fatalf("the refused segment changed on disk (%d of %d bytes, %v)", len(got), len(seg), err)
			}
			if names := listWALFiles(t, dir); len(names) != 1 {
				t.Fatalf("the refused open added a file: %v", names)
			}
		})
	}
}

// TestWALRestartDropsEmptySegments: every open starts a segment, so a
// restart that appends nothing leaves one holding only its header.
// Replay removes such a segment — it holds no row — so five open/close
// cycles with one append leave the data segment and the last active
// one, and replay reads the data segment alone. Indexes keep growing.
func TestWALRestartDropsEmptySegments(t *testing.T) {
	dir := t.TempDir()
	batch := walSampled(0, 3)
	for i := 0; i < 5; i++ {
		s := NewStore()
		w, err := OpenWAL(dir, s, WALOptions{})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if i == 0 {
			if err := w.AppendColumns(batch); err != nil {
				t.Fatal(err)
			}
		} else if rec := w.Recovery(); rec.Segments != 1 || rec.Rows != 3 || s.Len() != 3 {
			t.Fatalf("open %d: recovery %+v, %d rows, want the one data segment", i, rec, s.Len())
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := listWALFiles(t, dir), []string{segName(1), segName(5)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after 5 restarts: files %v, want %v", got, want)
	}
	replayed := NewStore()
	w, err := OpenWAL(dir, replayed, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if st := w.Stats(); st.ActiveSegment != 6 || st.SealedSegments != 1 {
		t.Fatalf("stats %+v, want segment 1 sealed and 6 active", st)
	}
	want := NewStore()
	want.appendColumns(batch)
	requireStoresEqual(t, want, replayed)
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
	w2, err := OpenWAL(dir, replayed, WALOptions{})
	if err != nil {
		t.Fatalf("reopen after an acked batch: %v", err)
	}
	defer w2.Close()
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
	w2, err := OpenWAL(dir, replayed, WALOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	want := NewStore()
	want.appendColumns(next)
	requireStoresEqual(t, want, replayed)
}
