package driftlog

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestWriteReadRoundTrip(t *testing.T) {
	src := paperExample()
	var buf bytes.Buffer
	n, err := src.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("wrote %d rows", n)
	}
	dst := NewStore()
	m, err := dst.ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m != 5 || dst.Len() != 5 {
		t.Fatalf("read %d rows, len %d", m, dst.Len())
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

func TestReadRejectsBadHeader(t *testing.T) {
	s := NewStore()
	if _, err := s.ReadFrom(strings.NewReader("not-a-driftlog\n")); err == nil {
		t.Fatal("expected header error")
	}
	if _, err := s.ReadFrom(strings.NewReader("")); err == nil {
		t.Fatal("expected EOF error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "drift.log")
	src := paperExample()
	if err := src.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	dst := NewStore()
	if err := dst.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("restored %d of %d rows", dst.Len(), src.Len())
	}
	// Loading on top of existing data appends.
	if err := dst.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 2*src.Len() {
		t.Fatalf("append-load gave %d rows", dst.Len())
	}
}

func TestLoadFileMissing(t *testing.T) {
	s := NewStore()
	if err := s.LoadFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error")
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
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if _, err := restored.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
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
