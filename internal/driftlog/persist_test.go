package driftlog

import (
	"testing"
	"time"
)

// walRoundTrip writes src's rows, in canonical order, through a WAL in a
// fresh directory and returns dst after a reopen of the directory
// replayed them into it. src must hold no vectors.
func walRoundTrip(t *testing.T, src, dst *Store) *Store {
	t.Helper()
	entries := make([]Entry, src.Len())
	for i := range entries {
		entries[i] = src.Entry(i)
	}
	dir := t.TempDir()
	w, err := OpenWAL(dir, NewStore(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendColumns(ColumnsFromEntries(entries)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, dst, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec := w2.Recovery(); rec.Rows != int64(len(entries)) {
		t.Fatalf("recovery %+v, want %d rows", rec, len(entries))
	}
	return dst
}

func TestWriteReadRoundTrip(t *testing.T) {
	src := paperExample()
	dst := walRoundTrip(t, src, NewStore())
	if dst.Len() != 5 {
		t.Fatalf("read %d rows", dst.Len())
	}
	for i := 0; i < 5; i++ {
		a, b := src.Entry(i), dst.Entry(i)
		if !a.Time.Equal(b.Time) || a.Drift != b.Drift || a.SampleID != b.SampleID {
			t.Fatalf("row %d differs: %+v vs %+v", i, a, b)
		}
		for k, v := range a.Attrs {
			if b.Attrs[k] != v {
				t.Fatalf("row %d attr %s: %q vs %q", i, k, v, b.Attrs[k])
			}
		}
	}
	// Queries must behave identically on the restored store.
	cr, err := dst.All().Count([]Cond{{AttrWeather, "snow"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Total != 2 || cr.Drift != 2 {
		t.Fatalf("restored count %+v", cr)
	}
}

func TestPersistLargeLog(t *testing.T) {
	s := NewStore()
	now := time.Now().UTC().Truncate(time.Microsecond)
	for i := 0; i < 2000; i++ {
		s.AppendBatch([]Entry{{
			Time: now.Add(time.Duration(i) * time.Second), Drift: i%3 == 0, SampleID: int64(i % 7),
			Attrs: map[string]string{AttrWeather: []string{"rain", "snow"}[i%2]},
		}})
	}
	restored := walRoundTrip(t, s, NewStore())
	a, _ := s.All().Count([]Cond{{AttrWeather, "rain"}}, nil)
	b, _ := restored.All().Count([]Cond{{AttrWeather, "rain"}}, nil)
	if a != b {
		t.Fatalf("counts differ: %+v vs %+v", a, b)
	}
}

func TestCompact(t *testing.T) {
	s := paperExample()
	day := time.Date(2020, 1, 15, 0, 0, 0, 0, time.UTC)
	removed := s.Compact(day.Add(7 * time.Hour))
	if removed != 3 {
		t.Fatalf("removed %d, want 3", removed)
	}
	if s.Len() != 2 {
		t.Fatalf("len %d", s.Len())
	}
	// Remaining rows: the two snow entries; queries still work.
	cr, err := s.All().Count([]Cond{{AttrWeather, "snow"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Total != 2 || cr.Drift != 2 {
		t.Fatalf("post-compaction count %+v", cr)
	}
	// Vanished values no longer match anything.
	cr, err = s.All().Count([]Cond{{AttrWeather, "clear-day"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Total != 0 {
		t.Fatalf("clear-day survived compaction: %+v", cr)
	}
	// Appending after compaction keeps columns aligned.
	s.AppendBatch([]Entry{{Time: day.Add(20 * time.Hour), Drift: false, SampleID: -1,
		Attrs: map[string]string{AttrWeather: "clear-day"}}})
	if s.Len() != 3 {
		t.Fatalf("len after append %d", s.Len())
	}
	e := s.Entry(2)
	if e.Attrs[AttrWeather] != "clear-day" {
		t.Fatalf("appended entry %+v", e)
	}
	// No-op compaction.
	if got := s.Compact(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)); got != 0 {
		t.Fatalf("no-op compaction removed %d", got)
	}
}
