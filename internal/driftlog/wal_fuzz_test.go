package driftlog

import (
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSegment builds a well-formed segment file from batches.
func fuzzSegment(batches ...[]Entry) []byte {
	b := []byte(walMagic)
	for _, batch := range batches {
		b = appendWALFrameColumns(b, ColumnsFromEntries(batch))
	}
	return b
}

// FuzzWALReplay feeds arbitrary bytes to the WAL as the final (tail)
// segment of a log and requires that replay never panics: it either
// recovers a prefix (possibly empty, possibly after truncating a torn
// tail) or refuses with a typed *CorruptError. On success the recovered
// store must be fully queryable and the WAL appendable.
func FuzzWALReplay(f *testing.F) {
	valid := fuzzSegment(walBatch(0, 3), walBatch(3, 5))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])           // torn mid-record
	f.Add(valid[:len(walMagic)+2])        // torn mid-frame-header
	f.Add([]byte(walMagic))               // header only
	f.Add([]byte("NZWAL9"))               // short header
	f.Add([]byte("BOGUSMAG"))             // wrong magic, right length
	f.Add([]byte{})                       // empty file
	f.Add(fuzzSegment())                  // valid empty segment
	f.Add(fuzzSegment(walBatch(0, 1)))    // single record
	flip := append([]byte(nil), valid...) // CRC mismatch
	flip[len(flip)-2] ^= 0x10
	f.Add(flip)
	huge := append([]byte(walMagic), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0) // 2 GiB claim
	f.Add(huge)
	zero := append([]byte(walMagic), 0, 0, 0, 0, 0, 0, 0, 0) // zero-length record
	f.Add(zero)
	badver := fuzzSegment(walBatch(0, 2))
	badver[len(walMagic)+8] = 99 // unsupported record version
	badver = fixCRC(badver)
	f.Add(badver)
	// Version 2 records with a sample section, whole and damaged inside it.
	sampled := append([]byte(walMagic), appendWALFrameColumns(nil, walSampled(0, 4))...)
	f.Add(sampled)
	f.Add(append(sampled[:len(sampled):len(sampled)], appendWALFrameColumns(nil, walSampled(4, 3))...))
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

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewStore()
		w, err := OpenWAL(dir, s, WALOptions{})
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("replay failed with an untyped error: %v", err)
			}
			return
		}
		defer w.Close()
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
		w2, err := OpenWAL(dir, s2, WALOptions{ReadOnly: true})
		if err != nil {
			t.Fatalf("second replay diverged into an error: %v", err)
		}
		_ = w2
		if s2.Len() != s.Len()+2 {
			t.Fatalf("second replay rows: want %d got %d", s.Len()+2, s2.Len())
		}
	})
}

// fixCRC rewrites the first frame's CRC so a deliberately mutated
// payload still passes the checksum and reaches the decoder.
func fixCRC(seg []byte) []byte {
	p := seg[len(walMagic):]
	length := int(uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24)
	payload := p[8 : 8+length]
	crc := crc32.Checksum(payload, walCRC)
	p[4], p[5], p[6], p[7] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
	return seg
}
