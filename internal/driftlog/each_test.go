package driftlog

import (
	"strconv"
	"testing"
	"time"
)

// TestStoreEach checks the bulk iterator agrees with Entry(i) on order
// and content — Each is the O(n log n) path the chaos audits use.
func TestStoreEach(t *testing.T) {
	s := NewStore()
	const n = 500
	base := time.Unix(0, 0).UTC()
	for i := 0; i < n; i++ {
		s.AppendBatch([]Entry{{
			Time:     base.Add(time.Duration(i) * time.Second),
			Attrs:    map[string]string{"seq": strconv.Itoa(i), AttrDevice: "d"},
			Drift:    i%3 == 0,
			SampleID: -1,
		}})
	}
	visited := 0
	s.Each(func(i int, e Entry) {
		if i != visited {
			t.Fatalf("Each index %d, want %d", i, visited)
		}
		want := s.Entry(i)
		if e.Time != want.Time || e.Drift != want.Drift || e.Attrs["seq"] != want.Attrs["seq"] {
			t.Fatalf("Each row %d = %+v, Entry(%d) = %+v", i, e, i, want)
		}
		visited++
	})
	if visited != n {
		t.Fatalf("Each visited %d rows, want %d", visited, n)
	}
}
