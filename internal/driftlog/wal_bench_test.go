package driftlog

import (
	"fmt"
	"testing"
)

// BenchmarkDriftlogAppend prices durability: the same batched append
// with and without a write-ahead log in front of the store. The wal
// variant pays one frame encode + write + fsync per batch — the
// nowal/wal pair in BENCH_wal.json is the durability overhead factor.
func BenchmarkDriftlogAppend(b *testing.B) {
	for _, per := range []int{16, 256} {
		batch := walBatch(0, per)
		b.Run(fmt.Sprintf("nowal/%d", per), func(b *testing.B) {
			s := NewStore()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.AppendBatch(batch)
			}
			reportRowRate(b, per)
		})
		b.Run(fmt.Sprintf("wal/%d", per), func(b *testing.B) {
			s := NewStore()
			w, err := OpenWAL(b.TempDir(), s, WALOptions{SegmentBytes: 64 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.AppendColumns(ColumnsFromEntries(batch)); err != nil {
					b.Fatal(err)
				}
				s.AppendBatch(batch)
			}
			reportRowRate(b, per)
		})
	}
}

// BenchmarkWALReplay measures recovery speed: rows per second from a
// cold directory into a fresh store (read-only replay, so iterations
// do not mutate the log). Split across active-segment-only and
// mostly-snapshot layouts, which stress the frame decoder and the gob
// snapshot reader respectively.
func BenchmarkWALReplay(b *testing.B) {
	const per = 64
	for _, tc := range []struct {
		name    string
		batches int
		opts    WALOptions
	}{
		{"segments/2k", 32, WALOptions{SegmentBytes: 64 << 20}},
		{"segments/8k", 128, WALOptions{SegmentBytes: 64 << 20}},
		{"segments/32k", 512, WALOptions{SegmentBytes: 64 << 20}},
		{"snapshot/8k", 128, WALOptions{SegmentBytes: 32 << 10, CompactSegments: 4}},
		{"snapshot/32k", 512, WALOptions{SegmentBytes: 32 << 10, CompactSegments: 4}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dir := b.TempDir()
			w, err := OpenWAL(dir, NewStore(), tc.opts)
			if err != nil {
				b.Fatal(err)
			}
			rows := 0
			for i := 0; i < tc.batches; i++ {
				if err := w.AppendColumns(ColumnsFromEntries(walBatch(rows, per))); err != nil {
					b.Fatal(err)
				}
				rows += per
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			if err := w.CompactionErr(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := NewStore()
				if _, err := OpenWAL(dir, s, WALOptions{ReadOnly: true}); err != nil {
					b.Fatal(err)
				}
				if s.Len() != rows {
					b.Fatalf("replayed %d rows, want %d", s.Len(), rows)
				}
			}
			reportRowRate(b, rows)
		})
	}
}

// reportRowRate attaches a rows/s metric so BENCH_wal.json carries
// absolute throughput next to the ns/op.
func reportRowRate(b *testing.B, rowsPerOp int) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(rowsPerOp)*float64(b.N)/sec, "rows/s")
	}
}
