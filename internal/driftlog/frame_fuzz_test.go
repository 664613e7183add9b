package driftlog_test

import (
	"math/rand"
	"reflect"
	"testing"

	"nazar/internal/driftlog"
)

// FuzzWireDecode hammers the frame decoder with arbitrary bytes. The
// contract under fuzz: every input either decodes (and then re-encodes
// to a frame that decodes to the same batch) or fails with a typed
// *driftlog.FrameError — never a panic, never an unbounded allocation.
func FuzzWireDecode(f *testing.F) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 9, 40} {
		entries := randEntries(r, n)
		frame, err := driftlog.AppendFrame(nil, batchOf(entries, randSamples(r, n)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		if len(frame) > 4 {
			f.Add(frame[:len(frame)/2]) // torn frame
			mut := append([]byte(nil), frame...)
			mut[len(mut)-1] ^= 0x55 // payload corruption
			f.Add(mut)
		}
	}
	f.Add([]byte("NZB1"))                               // header-only
	f.Add([]byte("XXXXxxxxxxxxxxxx"))                   // bad magic
	f.Add([]byte("NZB1\x02\x00aaaaaaaabb"))             // future version
	f.Add([]byte("NZB1\x01\xffaaaaaaaabb"))             // unknown flag bits
	f.Add([]byte("NZB1\x01\x00\xff\xff\xff\xffaaaabb")) // huge claimed length

	f.Fuzz(func(t *testing.T, p []byte) {
		b, err := driftlog.DecodeFrame(p, 1<<16)
		if err != nil {
			if _, ok := err.(*driftlog.FrameError); !ok {
				t.Fatalf("decode failure is %T, want *driftlog.FrameError: %v", err, err)
			}
			return
		}
		// Accepted frames must survive a re-encode/re-decode cycle.
		frame, err := driftlog.AppendFrame(nil, b)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		b2, err := driftlog.DecodeFrame(frame, 0)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if !reflect.DeepEqual(b2.Entries(), b.Entries()) {
			t.Fatal("entries diverged across re-encode cycle")
		}
		if !samplesEqual(b2.Samples, b.Samples) {
			t.Fatal("samples diverged across re-encode cycle")
		}
	})
}

// samplesEqual treats an all-nil sample section as equal to an absent
// one (a frame with zero non-nil samples encodes without the section).
func samplesEqual(a, b [][]float64) bool {
	if allNil(a) && allNil(b) {
		return true
	}
	return reflect.DeepEqual(a, b)
}
