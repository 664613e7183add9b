package driftlog

import (
	"bufio"
	"bytes"
	"os"
	"testing"
)

// FuzzReadFrom ensures the legacy gob snapshot decoder never panics on
// corrupted or truncated files.
func FuzzReadFrom(f *testing.F) {
	// Seed with a real serialized log and mutations of it.
	valid, err := os.ReadFile(goldenLogPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("nazar-driftlog-v1\n"))
	f.Add([]byte("bogus-header\n123"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore()
		n, err := readFrom(bufio.NewReader(bytes.NewReader(data)), func(entries []Entry, samples [][]float64) error {
			s.appendColumns(rowBatch(entries, samples))
			return nil
		})
		if err != nil {
			return
		}
		if int(n) != s.Len() {
			t.Fatalf("reported %d rows, stored %d", n, s.Len())
		}
		// The restored store must be fully queryable.
		if _, err := s.All().Count(nil, nil); err != nil {
			t.Fatal(err)
		}
	})
}
