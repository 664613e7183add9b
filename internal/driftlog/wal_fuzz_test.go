package driftlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSegment builds a well-formed segment file of frame records from
// batches.
func fuzzSegment(batches ...*ColumnarBatch) []byte {
	b := []byte(walMagic)
	for _, batch := range batches {
		b, _ = appendRecord(b, batch)
	}
	return b
}

// legacySegment builds a segment file of version-2 row records, the
// layout earlier versions wrote, which replay refuses.
func legacySegment(batches ...*ColumnarBatch) []byte {
	b := []byte(walMagic)
	for _, batch := range batches {
		b = appendWALFrameColumns(b, batch)
	}
	return b
}

// reorderedBatches returns batches over the same devices and weathers whose
// frame dictionaries list the shared values in a different order each (the
// order rows first carry them), so replay's remap must give a value one
// store id whichever batch brings it and in whatever position.
func reorderedBatches() []*ColumnarBatch {
	vals := []string{"snow", "rain", "fog"}
	var out []*ColumnarBatch
	for b, order := range [][]int{{0, 1, 2, 0}, {2, 1, 0, 2}, {1, 2, 0, 1}} {
		entries := make([]Entry, len(order))
		for i, k := range order {
			seq := 4*b + i
			entries[i] = Entry{Time: walTime(seq), Drift: k == 0, SampleID: int64(seq),
				Attrs: map[string]string{AttrDevice: fmt.Sprintf("dev_%d", 2-k), AttrWeather: vals[k]}}
		}
		out = append(out, ColumnsFromEntries(entries))
	}
	return out
}

// FuzzWALReplay feeds arbitrary bytes to the WAL as the final (tail)
// segment of a log and requires that replay never panics: it either
// recovers a prefix (possibly empty, possibly after truncating a torn
// tail) or refuses with a typed *CorruptError and leaves the file as it
// was. A torn tail drops exactly TornBytes, and what it drops never
// starts with a record whose length and CRC check out: such a record is
// the WAL's own write, and if it does not decode that is corruption. A
// file replay does not truncate stays byte for byte, unless it is empty
// or a bare header, which holds no row and is removed. On success the
// recovered store must be fully queryable and the WAL appendable.
func FuzzWALReplay(f *testing.F) {
	cols := func(seq, n int) *ColumnarBatch { return ColumnsFromEntries(walBatch(seq, n)) }
	valid := fuzzSegment(cols(0, 3), cols(3, 5))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])           // torn mid-record
	f.Add(valid[:len(walMagic)+2])        // torn mid-frame-header
	f.Add([]byte(walMagic))               // header only
	f.Add([]byte("NZWAL9"))               // short header
	f.Add([]byte("BOGUSMAG"))             // wrong magic, right length
	f.Add([]byte{})                       // empty file
	f.Add(fuzzSegment())                  // valid empty segment
	f.Add(fuzzSegment(cols(0, 1)))        // single record
	flip := append([]byte(nil), valid...) // CRC mismatch
	flip[len(flip)-2] ^= 0x10
	f.Add(flip)
	huge := append([]byte(walMagic), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0) // 2 GiB claim
	f.Add(huge)
	zero := append([]byte(walMagic), 0, 0, 0, 0, 0, 0, 0, 0) // zero-length record
	f.Add(zero)
	badver := fuzzSegment(cols(0, 2))
	badver[len(walMagic)+8] = 99 // neither a frame nor a row record version
	badver = fixCRC(badver)
	f.Add(badver)
	// Row records, which replay refuses, and records of either kind with
	// a sample section, whole and damaged inside it; row records after
	// frames are refused too.
	f.Add(legacySegment(cols(0, 3), cols(3, 5)))
	f.Add(append(legacySegment(cols(0, 3)), fuzzSegment(cols(3, 5))[len(walMagic):]...))
	for _, seg := range []func(...*ColumnarBatch) []byte{legacySegment, fuzzSegment} {
		sampled := seg(walSampled(0, 4))
		f.Add(sampled)
		f.Add(seg(walSampled(0, 4), walSampled(4, 3)))
		for _, poke := range []struct {
			back int  // bytes before the end of the record
			val  byte // replacement
		}{
			{8*2 + 2, 9},    // last vector's row out of range
			{8*2 + 2, 0},    // last vector's row not above the first's
			{8*2 + 1, 0x7F}, // last vector's dimension beyond the payload
		} {
			bad := append([]byte(nil), sampled...)
			bad[len(bad)-poke.back] = poke.val
			f.Add(fixCRC(bad))
		}
	}
	// Batches whose dictionaries list shared values in different orders.
	reordered := reorderedBatches()
	f.Add(fuzzSegment(reordered...))
	f.Add(fuzzSegment(reordered[1], reordered[0]))
	// The rows of golden_v1.driftlog as frame records, followed by more.
	f.Add(fuzzSegment(ColumnsFromEntries(goldenLogEntries()), walSampled(0, 4)))
	// The row-record fixtures as the tail segment.
	for _, fixture := range []string{"testdata/golden_v1.wal", "testdata/golden_v2.wal"} {
		raw, err := os.ReadFile(fixture)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	// A future frame version after two intact frames, every CRC correct.
	future, _ := appendRecord(nil, walSampled(8, 4))
	future[8+4] = 99
	binary.LittleEndian.PutUint32(future[4:], crc32.Checksum(future[8:], castagnoli))
	f.Add(append(fuzzSegment(walSampled(0, 4), walSampled(4, 4)), future...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewStore()
		w, err := OpenWAL(dir, s, WALOptions{})
		after, rerr := os.ReadFile(path)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("replay failed with an untyped error: %v", err)
			}
			if rerr != nil || !bytes.Equal(after, data) || len(listWALFiles(t, dir)) != 1 {
				t.Fatalf("a refused open changed the directory (%v)", rerr)
			}
			return
		}
		defer w.Close()
		rec := w.Recovery()
		switch {
		case rec.TornTail:
			kept := after
			if rerr != nil && bytes.HasPrefix(data, []byte(walMagic)) {
				kept = data[:len(walMagic)] // the cut left a bare header, removed as empty
			}
			if rec.TornFile != path || rec.TornBytes != int64(len(data)-len(kept)) || !bytes.HasPrefix(data, kept) {
				t.Fatalf("recovery %+v, but %d of %d bytes were kept", rec, len(kept), len(data))
			}
			if dropped := data[len(kept):]; len(dropped) >= 8 {
				length := binary.LittleEndian.Uint32(dropped)
				if length > 0 && length <= maxWALRecord && uint64(len(dropped)-8) >= uint64(length) &&
					crc32.Checksum(dropped[8:8+length], castagnoli) == binary.LittleEndian.Uint32(dropped[4:]) {
					t.Fatalf("dropped a tail that starts with a checked %d-byte record", length)
				}
			}
		case len(data) == 0 || string(data) == walMagic:
			if rerr == nil {
				t.Fatal("a segment holding no record survived replay")
			}
		case rerr != nil || !bytes.Equal(after, data):
			t.Fatalf("a clean replay changed the segment (%v)", rerr)
		}
		// Recovered: the store must answer queries and accept appends.
		if _, err := s.All().Count(nil, nil); err != nil {
			t.Fatalf("recovered store not queryable: %v", err)
		}
		if err := w.AppendColumns(ColumnsFromEntries(walBatch(100, 2))); err != nil {
			t.Fatalf("recovered WAL not appendable: %v", err)
		}
		// Replay must be a prefix: whatever it recovered, a second
		// replay of the (now truncated/cleaned) directory agrees.
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		s2 := NewStore()
		w2, err := OpenWAL(dir, s2, WALOptions{})
		if err != nil {
			t.Fatalf("second replay diverged into an error: %v", err)
		}
		defer w2.Close()
		if s2.Len() != s.Len()+2 {
			t.Fatalf("second replay rows: want %d got %d", s.Len()+2, s2.Len())
		}
	})
}

// fixCRC rewrites the first record's CRC — and, when the record holds a
// frame, the frame's own — so a deliberately mutated payload still
// passes the checksums and reaches the decoder.
func fixCRC(seg []byte) []byte {
	p := seg[len(walMagic):]
	payload := p[8 : 8+binary.LittleEndian.Uint32(p)]
	if len(payload) >= frameHeaderSize && string(payload[:4]) == frameMagic {
		binary.LittleEndian.PutUint32(payload[10:], crc32.Checksum(payload[frameHeaderSize:], castagnoli))
	}
	binary.LittleEndian.PutUint32(p[4:], crc32.Checksum(payload, castagnoli))
	return seg
}
