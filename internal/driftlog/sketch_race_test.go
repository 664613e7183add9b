package driftlog

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSketchFeedConcurrent runs the batch feed under everything that can
// race with it: several writers appending (app_version already sketched)
// while firmware crosses the threshold mid-run — a tier-up replay — and
// Compact rebuilds the rings from the survivors, with a reader asserting
// all along that no estimate falls below the exact count of the rows its
// view can see (feeding precedes landing, rebuilt rings are installed
// whole). At the end every bucket's Count-Min cells and adds must equal a
// row-by-row replay of the rows the store holds: each row was fed exactly
// once, by its append or by a replay, never both and never neither. The
// ring is wide enough never to fold, so bucket contents do not depend on
// which writer created a bucket first.
func TestSketchFeedConcurrent(t *testing.T) {
	cfg := sketchTestConfig()
	cfg.Threshold = 48
	cfg.MaxBuckets = 1 << 20
	cfg.Width, cfg.PairWidth, cfg.Depth = 256, 512, 2 // hundreds of buckets, rebuilt per compaction
	s := NewStoreWithSketch(cfg)
	base := time.Unix(0, 0).UTC()
	const writers, batches, rows = 4, 60, 32
	var clock atomic.Int64 // event seconds, shared so writers interleave in time
	batch := func(r *rand.Rand, firmwares int) []Entry {
		out := make([]Entry, rows)
		for i := range out {
			attrs := map[string]string{
				"app_version": fmt.Sprintf("1.%d", r.Intn(400)),
				"firmware":    fmt.Sprintf("fw%d", r.Intn(firmwares)),
				AttrWeather:   fmt.Sprintf("w%d", r.Intn(4)),
			}
			if r.Intn(4) > 0 {
				attrs[AttrDevice] = fmt.Sprintf("dev%d", r.Intn(30))
			}
			if r.Intn(2) == 0 {
				attrs["app_version"] = fmt.Sprintf("1.%d", r.Intn(4)) // hot
			}
			out[i] = Entry{Time: base.Add(time.Duration(clock.Add(3)) * time.Second),
				Drift: r.Intn(3) == 0, SampleID: -1, Attrs: attrs}
		}
		return out
	}
	for warm := rand.New(rand.NewSource(99)); len(s.SketchedAttrs()) == 0; {
		s.AppendBatch(batch(warm, 8))
	}
	if got := s.SketchedAttrs(); len(got) != 1 || got[0] != "app_version" {
		t.Fatalf("warm-up sketched %v, want app_version only", got)
	}

	// A view pinned before a compaction does not reflect the store after it
	// (Compact's contract), so the reader holds views only between
	// compactions; writers and tier-ups race with it freely.
	var views sync.RWMutex
	var writing sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for b := 0; b < batches; b++ {
				// firmware's value space opens up as the run goes, so it
				// crosses the threshold while every writer is mid-stream.
				s.AppendBatch(batch(r, 8+4*b))
			}
		}(w)
	}
	var compacted atomic.Int64
	compactorDone := make(chan struct{})
	go func() {
		defer close(compactorDone)
		// One compaction per ~500 rows of writer progress, dropping the
		// older half of the log each time.
		for last := clock.Load(); !done.Load(); time.Sleep(200 * time.Microsecond) {
			if now := clock.Load(); now-last >= 1500 {
				last = now
				views.Lock()
				compacted.Add(int64(s.Compact(base.Add(time.Duration(now/2) * time.Second))))
				views.Unlock()
			}
		}
	}()
	readerDone := make(chan struct{})
	checks := 0
	go func() {
		defer close(readerDone)
		r := rand.New(rand.NewSource(5))
		for !done.Load() {
			views.RLock()
			now := base.Add(time.Duration(clock.Load()) * time.Second)
			for _, v := range []*View{s.All(), s.Window(now.Add(-333*time.Second), now.Add(-7*time.Second))} {
				for _, conds := range [][]Cond{
					{{"app_version", fmt.Sprintf("1.%d", r.Intn(4))}},
					{{"firmware", fmt.Sprintf("fw%d", r.Intn(8))}},
					{{"app_version", fmt.Sprintf("1.%d", r.Intn(4))}, {AttrWeather, "w1"}},
					{{"firmware", fmt.Sprintf("fw%d", r.Intn(8))}, {"app_version", fmt.Sprintf("1.%d", r.Intn(4))}},
				} {
					got, err1 := v.Count(conds, nil)
					exact, err2 := refCount(v, conds, nil)
					if err1 != nil || err2 != nil {
						t.Errorf("conds %v: errs %v %v", conds, err1, err2)
					} else if got.Total < exact.Total || got.Drift < exact.Drift {
						t.Errorf("conds %v: estimate %+v below exact %+v of the view's rows (sketched %v)",
							conds, got, exact, v.sketched)
					}
					checks++
				}
			}
			views.RUnlock()
		}
	}()
	writing.Wait()
	done.Store(true)
	<-compactorDone
	<-readerDone

	if got := s.SketchedAttrs(); len(got) != 2 {
		t.Fatalf("sketched %v, want firmware to have tiered up mid-run", got)
	}
	if compacted.Load() == 0 || checks == 0 {
		t.Fatalf("nothing raced: %d rows compacted, %d reader checks", compacted.Load(), checks)
	}
	if d := diffSketchState(s.sk, refReplay(s, s.sketchedSet()), false); d != "" {
		t.Fatalf("after %d rows compacted: %s", compacted.Load(), d)
	}
}
