package driftlog

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// viewEntries reconstructs the rows a view pinned — every row of every
// pinned shard, in sequence order — from the view alone.
func viewEntries(v *View) []Entry {
	type seqEntry struct {
		seq int64
		e   Entry
	}
	var rows []seqEntry
	for si := range v.shards {
		vs := &v.shards[si]
		for i := 0; i < vs.rows; i++ {
			e := Entry{Time: time.Unix(0, vs.times[i]).UTC(), Drift: vs.drift[i], SampleID: vs.samples[i], Attrs: map[string]string{}}
			for name, col := range vs.cols {
				if id := col.ids[i]; id != 0 {
					e.Attrs[name] = col.dict[id]
				}
			}
			rows = append(rows, seqEntry{vs.seqs[i], e})
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].seq < rows[b].seq })
	out := make([]Entry, len(rows))
	for i, r := range rows {
		out[i] = r.e
	}
	return out
}

// TestSketchFeedConcurrent races the tier-up against everything it can
// meet: several writers appending (app_version already tiered) while
// firmware crosses the threshold mid-run, Compact dropping the older half of
// the log now and then, and a reader pinning views and querying them as it
// goes. Afterwards every view's answers, taken while the race ran, must
// equal those of an untiered store built post hoc from the rows that view
// pinned: a tier-up that freed a column's bitmaps under a view, or a column
// created with bitmaps after its attribute tiered, shows as a difference.
func TestSketchFeedConcurrent(t *testing.T) {
	cfg := sketchTestConfig()
	cfg.Threshold = 48
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
		t.Fatalf("warm-up tiered %v, want app_version only", got)
	}

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
		for last := clock.Load(); !done.Load(); time.Sleep(200 * time.Microsecond) {
			if now := clock.Load(); now-last >= 1500 {
				last = now
				compacted.Add(int64(s.Compact(base.Add(time.Duration(now/2) * time.Second))))
			}
		}
	}()
	type pinned struct {
		v       *View
		conds   [][]Cond
		answers []string
	}
	var seen []pinned
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		r := rand.New(rand.NewSource(5))
		hot := func(prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, r.Intn(n)) }
		// The first 20 views stay, the last 20 slots keep the latest ones.
		// The writers can finish between two polls, so the loop ends only
		// after a round that began once they had: its views are pinned
		// after firmware tiered up.
		for n, last := 0, false; !last; {
			last = done.Load()
			now := base.Add(time.Duration(clock.Load()) * time.Second)
			for _, v := range []*View{s.All(), s.Window(now.Add(-333*time.Second), now.Add(-7*time.Second))} {
				conds := [][]Cond{
					{{"app_version", hot("1.", 4)}},
					{{"firmware", hot("fw", 8)}},
					{{"app_version", hot("1.", 4)}, {AttrWeather, "w1"}},
					{{"firmware", hot("fw", 8)}, {"app_version", hot("1.", 4)}},
				}
				p := pinned{v, conds, viewAnswers(t, v, conds)}
				if len(seen) < 40 {
					seen = append(seen, p)
				} else {
					seen[20+n%20] = p
					n++
				}
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	writing.Wait()
	done.Store(true)
	<-compactorDone
	<-readerDone

	if got := s.SketchedAttrs(); len(got) != 2 {
		t.Fatalf("tiered %v, want firmware to have tiered up mid-run", got)
	}
	if compacted.Load() == 0 || len(seen) == 0 {
		t.Fatalf("nothing raced: %d rows compacted, %d views", compacted.Load(), len(seen))
	}
	tiered := 0
	for i, p := range seen {
		twin := NewStoreWithSketch(untiered)
		twin.AppendBatch(viewEntries(p.v))
		var from, to time.Time
		if f, e := p.v.Bounds(); f != 0 {
			from, to = time.Unix(0, f), time.Unix(0, e)
		}
		if want := viewAnswers(t, twin.Window(from, to), p.conds); !reflect.DeepEqual(p.answers, want) {
			t.Fatalf("view %d of %d (tiered %v): %d answers, the untiered twin %d", i, len(seen), p.v.sketched, len(p.answers), len(want))
		}
		tiered = max(tiered, len(p.v.sketched))
	}
	if tiered < 2 {
		t.Fatalf("no view pinned after firmware tiered up (%d views)", len(seen))
	}
}
