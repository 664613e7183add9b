package driftlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// walBatch fabricates a deterministic ingest batch: n entries starting
// at sequence number seq, with device/weather attributes and a drift
// flag pattern that exercises both bitmap polarities.
func walBatch(seq, n int) []Entry {
	base := time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC)
	entries := make([]Entry, n)
	for i := range entries {
		k := seq + i
		cond := "clear"
		if k%3 == 0 {
			cond = "snow"
		}
		entries[i] = Entry{
			Time: base.Add(time.Duration(k) * time.Second),
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
		batch := walBatch(i*9, 9)
		if err := w.AppendColumns(ColumnsFromEntries(batch)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		live.AppendBatch(batch)
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

func TestWALExplicitRotateAndCompact(t *testing.T) {
	dir := t.TempDir()
	live := NewStore()
	w, err := OpenWAL(dir, live, WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 3; i++ {
		batch := walBatch(i*4, 4)
		if err := w.AppendColumns(ColumnsFromEntries(batch)); err != nil {
			t.Fatalf("append: %v", err)
		}
		live.AppendBatch(batch)
		if err := w.Rotate(); err != nil {
			t.Fatalf("rotate: %v", err)
		}
	}
	if err := w.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	st := w.Stats()
	if st.SealedSegments != 0 || st.Compactions != 1 {
		t.Fatalf("post-compact stats: %+v", st)
	}
	if st.SnapshotSegment != 3 {
		t.Fatalf("snapshot segment: want 3 got %d", st.SnapshotSegment)
	}
	segs, snaps := listWALFiles(t, dir)
	if len(snaps) != 1 {
		t.Fatalf("snapshots: want 1 got %v", snaps)
	}
	if len(segs) != 1 { // only the active segment survives
		t.Fatalf("segments after compact: want 1 got %v", segs)
	}
	// Appends continue after compaction and land after the snapshot rows.
	tail := walBatch(12, 4)
	if err := w.AppendColumns(ColumnsFromEntries(tail)); err != nil {
		t.Fatalf("post-compact append: %v", err)
	}
	live.AppendBatch(tail)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	replayed := NewStore()
	w2, err := OpenWAL(dir, replayed, WALOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if rec := w2.Recovery(); rec.SnapshotRows != 12 || rec.Rows != 4 {
		t.Fatalf("recovery: %+v", rec)
	}
	requireStoresEqual(t, live, replayed)
	// Idempotent compaction: nothing sealed, nothing to do.
	if err := w2.Compact(); err != nil {
		t.Fatalf("empty compact: %v", err)
	}
}

func TestWALAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	live := NewStore()
	w, err := OpenWAL(dir, live, WALOptions{SegmentBytes: 64, CompactSegments: 3})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 9; i++ {
		batch := walBatch(i*3, 3)
		if err := w.AppendColumns(ColumnsFromEntries(batch)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		live.AppendBatch(batch)
	}
	if err := w.Close(); err != nil { // waits for background compaction
		t.Fatalf("close: %v", err)
	}
	if err := w.CompactionErr(); err != nil {
		t.Fatalf("background compaction: %v", err)
	}
	if st := w.Stats(); st.Compactions == 0 {
		t.Fatalf("auto-compaction never fired: %+v", st)
	}
	replayed := NewStore()
	w2, err := OpenWAL(dir, replayed, WALOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	requireStoresEqual(t, live, replayed)
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
	if err := w.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, snaps := listWALFiles(t, dir)
	if len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v", snaps)
	}
	path := filepath.Join(dir, snaps[0])
	b, _ := os.ReadFile(path)
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

func TestWALFrameRoundTrip(t *testing.T) {
	entries := walBatch(0, 17)
	frame := appendWALFrameColumns(nil, ColumnsFromEntries(entries))
	if len(frame) < 8 {
		t.Fatalf("frame too short: %d", len(frame))
	}
	got, err := decodeWALPayload(frame[8:])
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
		{"bomb entry count", []byte{walRecordVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}},
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
			if _, err := decodeWALPayload(tc.payload); err == nil {
				t.Fatalf("decode accepted malformed payload")
			}
		})
	}
}

func TestWALStats(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, NewStore(), WALOptions{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer w.Close()
	if st := w.Stats(); st.ActiveSegment != 1 || st.SnapshotSegment != -1 {
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
}
