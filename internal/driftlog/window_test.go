package driftlog

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// windowStore builds a rows-row log (a multiple of 512), one row per
// millisecond, ingested as 256-row columnar batches. interleaved makes it two
// writers whose batches land alternately: batch b carries the times of batch
// b^1, so every shard's times rise with an inversion at each batch pair.
// Row g belongs to device g%32, which fixes the shards' fill pattern
// whatever the log's length.
func windowStore(rows int, interleaved bool) *Store {
	const batch = 256
	devs := make([]string, 33)
	for i := 1; i < len(devs); i++ {
		devs[i] = fmt.Sprint("dev_", i)
	}
	cb := &ColumnarBatch{Times: make([]int64, batch), Drift: make([]bool, batch), SampleIDs: make([]int64, batch),
		Cols: []ColumnData{{Name: AttrDevice, Dict: devs, IDs: make([]uint32, batch)}}}
	s := NewStore()
	for b := 0; b < rows/batch; b++ {
		tb := b
		if interleaved {
			tb = b ^ 1
		}
		for i := range batch {
			g := b*batch + i
			cb.Times[i] = int64(tb*batch+i) * int64(time.Millisecond)
			cb.Drift[i] = g%3 == 0
			cb.SampleIDs[i] = -1
			cb.Cols[0].IDs[i] = uint32(1 + g%32)
		}
		if err := s.AppendColumns(cb); err != nil {
			panic(err)
		}
	}
	return s
}

// TestWindowBuildReadsOnlyCutWords is the window build's work count: on a
// two-writer log, a window over its newest 1/40, and a Since delta of it
// that admits only each shard's newest 100 rows, read the timestamps of the
// words their bounds cut and no others — at most 64 per cut word in every
// shard — so the count is the same when the log doubles.
func TestWindowBuildReadsOnlyCutWords(t *testing.T) {
	var reads [2][]int
	for _, rows := range []int{40 * 2048, 80 * 2048} {
		s := windowStore(rows, true)
		// Half a batch past a batch-pair boundary: the window cuts the
		// older batch of its first pair in two.
		from := time.Unix(0, int64(rows-rows/40+128)*int64(time.Millisecond))
		v := s.Window(from, time.Time{})
		prev := v.ShardRows()
		for i := range prev {
			prev[i] = max(prev[i]-100, 0)
		}
		_, to := v.Bounds()
		d, err := v.Since(prev, to)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range []*View{v, d} {
			if got, want := v.Len(), refLen(v); got != want || got == 0 {
				t.Fatalf("%d rows, view %d: Len %d, scan %d", rows, k, got, want)
			}
			total := 0
			for si := range v.shards {
				vs := &v.shards[si]
				if _, _, cut := vs.wordClasses(v); vs.timesRead > 64*cut {
					t.Fatalf("%d rows, view %d, shard %d: read %d timestamps for %d cut words", rows, k, si, vs.timesRead, cut)
				}
				total += vs.timesRead
			}
			if total == 0 {
				t.Fatalf("%d rows, view %d: no word cut, the window is aligned", rows, k)
			}
			reads[k] = append(reads[k], total)
		}
	}
	for k, r := range reads {
		if r[0] != r[1] {
			t.Fatalf("view %d: timestamps read: %d, then %d with the log doubled", k, r[0], r[1])
		}
	}
}

// TestWindowBuildDuringOutOfOrderAppends builds views, and Since deltas of
// them, while two writers append batches stamped behind each other's (run
// under -race by `make race`): a view pins its word time bounds while the
// writers fold rows into the tail word's, so every view must still match
// the row predicate over the rows it pinned, and once the writers stop a
// fresh view must match the scan reference on every aggregate.
func TestWindowBuildDuringOutOfOrderAppends(t *testing.T) {
	const batches, batch = 80, 48
	base := time.Unix(0, 0).UTC()
	s := NewStore()
	var writers sync.WaitGroup
	for wr := range 2 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(wr)))
			for b := range batches {
				entries := make([]Entry, batch)
				for i := range entries {
					// Writer 1's batch b is stamped before writer 0's, and
					// each row up to 100 s behind its slot.
					sec := (2*b+1-wr)*batch + i - r.Intn(100)
					entries[i] = Entry{Time: base.Add(time.Duration(sec) * time.Second), Drift: r.Intn(4) == 0, SampleID: -1,
						Attrs: map[string]string{AttrDevice: fmt.Sprint("dev_", r.Intn(5)), AttrWeather: fmt.Sprint("w", r.Intn(3))}}
				}
				s.AppendBatch(entries)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		writers.Wait()
		close(done)
	}()
	from, to := base.Add(1001*time.Second), base.Add(5555*time.Second)
	views := 0
	for running := true; running; views++ {
		select {
		case <-done:
			running = false
		default:
		}
		v := s.Window(from, to)
		prev := v.ShardRows()
		for i := range prev {
			prev[i] /= 2
		}
		d, err := v.Since(prev, base.Add(3000*time.Second).UnixNano())
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []*View{v, d} {
			if got, want := v.Len(), refLen(v); got != want {
				t.Fatalf("view %d: Len %d, scan %d", views, got, want)
			}
		}
	}
	if views < 2 {
		t.Fatalf("only %d views built", views)
	}
	requireWordBounds(t, s)
	conds := append(diffConds()[:1], []Cond{{AttrWeather, "w1"}}, []Cond{{AttrDevice, "dev_2"}, {AttrWeather, "w0"}})
	requireViewMatchesScan(t, s.Window(from, to), conds)
}
