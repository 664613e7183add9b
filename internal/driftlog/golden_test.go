package driftlog

import (
	"errors"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The fixtures under testdata are the formats earlier versions wrote and
// this one refuses. golden_v1.driftlog (a gob snapshot, as -log-file saved
// it) and golden_v1.wal (row records, version 1) were written by the seed
// implementation; golden_v2.wal (row records with sample sections) and
// golden_v2.driftlog (two gob chunks with Sample fields, as compaction
// wrote them) by the last writers of those formats. No writer of any of
// them remains, so the files cannot be regenerated: they are the refusal
// contract. Replay must reject each with a *CorruptError naming the file
// and leave the directory exactly as it found it.

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

// dirFiles reads every file in dir into a name → contents map.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(ents))
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(raw)
	}
	return files
}

// TestWALRefusesLegacyFiles places each fixture where an earlier version
// left it — a row-record segment sealed or as the tail, a gob file as the
// snapshot — beside a segment of frame records. OpenWAL refuses with a
// *CorruptError naming the fixture, and the directory is byte for byte
// what it was, with no file added.
func TestWALRefusesLegacyFiles(t *testing.T) {
	const snapshot = "snapshot-0000000000000000.driftlog"
	frames := fuzzSegment(walSampled(0, 4), walSampled(4, 3))
	for _, tc := range []struct {
		fixture, pos   string
		name, frameSeg string // the fixture's name in the directory, and the frame segment's
	}{
		{"golden_v1.wal", "sealed", segName(1), segName(2)},
		{"golden_v1.wal", "tail", segName(2), segName(1)},
		{"golden_v2.wal", "sealed", segName(1), segName(2)},
		{"golden_v2.wal", "tail", segName(2), segName(1)},
		{"golden_v1.driftlog", "snapshot", snapshot, segName(1)},
		{"golden_v2.driftlog", "snapshot", snapshot, segName(1)},
	} {
		t.Run(tc.fixture+"/"+tc.pos, func(t *testing.T) {
			dir := goldenDir(t, map[string]string{tc.name: filepath.Join("testdata", tc.fixture)})
			if err := os.WriteFile(filepath.Join(dir, tc.frameSeg), frames, 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirFiles(t, dir)
			_, err := OpenWAL(dir, NewStore(), WALOptions{})
			var ce *CorruptError
			if !errors.As(err, &ce) || ce.Path != filepath.Join(dir, tc.name) {
				t.Fatalf("open: %v, want a *CorruptError naming %s", err, tc.name)
			}
			if after := dirFiles(t, dir); !maps.Equal(before, after) {
				t.Fatalf("the refused open changed the directory: %d files, now %d", len(before), len(after))
			}
		})
	}
}
