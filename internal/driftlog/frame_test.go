package driftlog_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"nazar/internal/driftlog"
)

// randEntries fabricates entries with deliberately awkward shapes:
// attributes missing at random (odd shard fills on append), empty
// values, scattered timestamps, negative sample IDs.
func randEntries(r *rand.Rand, n int) []driftlog.Entry {
	base := time.Unix(0, 0).UTC()
	entries := make([]driftlog.Entry, n)
	for i := range entries {
		attrs := map[string]string{}
		if r.Float64() < 0.9 {
			attrs[driftlog.AttrWeather] = fmt.Sprintf("w%d", r.Intn(4))
		}
		if r.Float64() < 0.8 {
			attrs[driftlog.AttrDevice] = fmt.Sprintf("dev_%d", r.Intn(12))
		}
		if r.Float64() < 0.1 {
			attrs["note"] = "" // empty value is legal and distinct from missing
		}
		entries[i] = driftlog.Entry{
			Time:     base.Add(time.Duration(r.Intn(5000)) * time.Millisecond),
			Drift:    r.Float64() < 0.4,
			SampleID: int64(r.Intn(30)) - 1,
			Attrs:    attrs,
		}
	}
	return entries
}

func randSamples(r *rand.Rand, n int) [][]float64 {
	if n == 0 || r.Float64() < 0.3 {
		return nil
	}
	samples := make([][]float64, n)
	for i := range samples {
		if r.Float64() < 0.4 {
			s := make([]float64, 1+r.Intn(6))
			for j := range s {
				s[j] = r.NormFloat64()
			}
			samples[i] = s
		}
	}
	return samples
}

// batchOf converts entries and their optional sample column to a batch.
func batchOf(entries []driftlog.Entry, samples [][]float64) *driftlog.ColumnarBatch {
	b := driftlog.ColumnsFromEntries(entries)
	b.Samples = samples
	return b
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		entries := randEntries(r, r.Intn(100))
		samples := randSamples(r, len(entries))
		b := batchOf(entries, samples)
		frame, err := driftlog.AppendFrame(nil, b)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		got, err := driftlog.DecodeFrame(frame, 0)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Entries(), b.Entries()) {
			t.Fatalf("seed %d: entries diverged after round trip", seed)
		}
		wantSamples := samples
		if allNil(wantSamples) {
			wantSamples = nil // a frame with no samples decodes to a nil section
		}
		if !reflect.DeepEqual(got.Samples, wantSamples) {
			t.Fatalf("seed %d: samples diverged:\n got %v\nwant %v", seed, got.Samples, wantSamples)
		}
	}
}

func allNil(samples [][]float64) bool {
	for _, s := range samples {
		if s != nil {
			return false
		}
	}
	return true
}

func TestDecodeTypedErrors(t *testing.T) {
	valid, err := driftlog.AppendFrame(nil, batchOf(randEntries(rand.New(rand.NewSource(3)), 8), nil))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, frame []byte, wantSub string) {
		t.Helper()
		_, err := driftlog.DecodeFrame(frame, 0)
		if err == nil {
			t.Fatalf("%s: decode accepted a corrupt frame", name)
		}
		var fe *driftlog.FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: error %T is not *driftlog.FrameError: %v", name, err, err)
		}
		if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}

	check("empty", nil, "short frame")
	check("torn header", valid[:10], "short frame")
	check("torn payload", valid[:len(valid)-3], "does not match")

	bad := append([]byte(nil), valid...)
	bad[0] = 'X'
	check("bad magic", bad, "bad magic")

	bad = append([]byte(nil), valid...)
	bad[4] = 99
	check("future version", bad, "unsupported frame version")

	bad = append([]byte(nil), valid...)
	bad[5] |= 0x80
	check("unknown flags", bad, "unknown flag bits")

	bad = append([]byte(nil), valid...)
	bad[len(bad)-1] ^= 0xFF
	check("payload corruption", bad, "crc mismatch")

	bad = append([]byte(nil), valid...)
	bad[10] ^= 0xFF
	check("crc corruption", bad, "crc mismatch")

	// Row count beyond the server's batch cap.
	big, err := driftlog.AppendFrame(nil, batchOf(randEntries(rand.New(rand.NewSource(4)), 20), nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := driftlog.DecodeFrame(big, 5); err == nil {
		t.Fatal("maxRows: decode accepted 20 rows with limit 5")
	} else if !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("maxRows: unexpected error %v", err)
	}
}
