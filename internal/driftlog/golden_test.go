package driftlog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

const goldenLogPath = "testdata/golden_v1.driftlog"

// goldenLogEntries is the fixed content of the golden file, written by
// the pre-sharding store implementation. The on-disk format is a
// compatibility contract: internal refactors (sharding, batching) must
// keep both this file readable and freshly written files identical in
// logical content.
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
// implementation and checks every row survives; then re-saves and
// re-loads to prove the current writer stays within the v1 format. Set
// UPDATE_GOLDEN=1 to regenerate the fixture (only after a deliberate,
// versioned format change).
func TestGoldenLogRoundTrip(t *testing.T) {
	want := goldenLogEntries()

	if os.Getenv("UPDATE_GOLDEN") != "" {
		s := NewStore()
		for _, e := range want {
			s.AppendBatch([]Entry{e})
		}
		if err := os.MkdirAll(filepath.Dir(goldenLogPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := s.SaveFile(goldenLogPath); err != nil {
			t.Fatal(err)
		}
		t.Log("golden driftlog regenerated")
	}

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

	s := NewStore()
	if err := s.LoadFile(goldenLogPath); err != nil {
		t.Fatal(err)
	}
	check(s, "golden load")

	// Re-save with the current writer and re-load: the v1 format must
	// round-trip through the sharded store unchanged.
	var buf bytes.Buffer
	if n, err := s.WriteTo(&buf); err != nil || int(n) != len(want) {
		t.Fatalf("rewrite: n=%d err=%v", n, err)
	}
	s2 := NewStore()
	if _, err := s2.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	check(s2, "rewrite round-trip")

	// The golden rows must stay queryable through the windowed view.
	cr, err := s2.All().Count([]Cond{{Attr: AttrWeather, Value: "snow"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Total != 2 || cr.Drift != 2 {
		t.Fatalf("snow count %+v, want 2/2", cr)
	}
}
