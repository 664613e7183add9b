package driftlog

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// refBounds is the reference for the floor's row bound: each value's rows
// over every row the view pinned, in its window or not, summed over shards.
func refBounds(v *View) map[string]map[string]int {
	out := map[string]map[string]int{}
	for si := range v.shards {
		vs := &v.shards[si]
		for _, nc := range refSortedCols(v, vs, nil) {
			for _, id := range nc.c.ids[:vs.rows] {
				if id == 0 {
					continue
				}
				if out[nc.name] == nil {
					out[nc.name] = map[string]int{}
				}
				out[nc.name][v.dicts[nc.name][id]]++
			}
		}
	}
	return out
}

// checkFloor requires AttrValueCounts under fl to agree with the scan
// reference: a counted slot holds the window's count (under ovB, which must
// mirror ovS), no slot of an excluded attribute is counted, and every other
// value whose pinned bound clears the floor is. Appends since the view only
// raise the bounds the call reads, so only when exact — nothing appended to
// the columns the view pinned since it pinned them — must every other value
// be Uncounted.
func checkFloor(t *testing.T, v *View, ovB, ovS *Overlay, fl Floor, exact bool) {
	t.Helper()
	want, bounds := refAttrValueCounts(v, ovS), refBounds(v)
	got := v.AttrValueCounts(ovB, fl)
	if len(got) != len(v.dicts) {
		t.Fatalf("%d attributes, the view has %d", len(got), len(v.dicts))
	}
	for _, ac := range got {
		excluded := slices.Contains(fl.Exclude, ac.Name)
		for id := 1; id < len(ac.Dict); id++ {
			cr, val := ac.Counts[id], ac.Dict[id]
			b := bounds[ac.Name][val]
			clears := !excluded && fl.Clears(b)
			switch {
			case cr.Total == Uncounted && clears:
				t.Fatalf("%s=%s: bound %d clears %+v but is uncounted", ac.Name, val, b, fl)
			case cr.Total != Uncounted && excluded:
				t.Fatalf("%s=%s: counted %+v, but %s is excluded", ac.Name, val, cr, ac.Name)
			case cr.Total != Uncounted && cr != want[ac.Name][val]:
				t.Fatalf("%s=%s: %+v, scan %+v", ac.Name, val, cr, want[ac.Name][val])
			case cr.Total != Uncounted && exact && !clears:
				t.Fatalf("%s=%s: counted, but its bound %d fails %+v", ac.Name, val, b, fl)
			}
		}
	}
}

// randomFloor draws a floor over a window of rows rows: a random occurrence
// (zero included), or one a random value's bound meets exactly, and a random
// subset of the view's attributes excluded.
func randomFloor(r *rand.Rand, v *View, rows int) Floor {
	fl := Floor{Rows: max(rows, 1), MinOccurrence: []float64{0, 0.001, 0.01, 0.05, 0.2}[r.Intn(5)]}
	if r.Intn(2) == 0 {
		var bs []int
		for _, byVal := range refBounds(v) {
			for _, b := range byVal {
				bs = append(bs, b)
			}
		}
		if len(bs) > 0 {
			slices.Sort(bs)
			fl.MinOccurrence = float64(bs[r.Intn(len(bs))]) / float64(fl.Rows)
		}
	}
	for name := range v.dicts {
		if r.Intn(4) == 0 {
			fl.Exclude = append(fl.Exclude, name)
		}
	}
	return fl
}

// randomWindow draws a window over appendRandomTimed's seconds.
func randomWindow(r *rand.Rand) (from, to time.Time) {
	base := time.Unix(0, 0).UTC()
	if r.Intn(4) == 0 {
		return time.Time{}, time.Time{}
	}
	lo := r.Intn(6000)
	return base.Add(time.Duration(lo) * time.Second), base.Add(time.Duration(lo+1+r.Intn(6000)) * time.Second)
}

// appendValues appends n rows whose value of attr is one of vals: more than
// floorTierThreshold of them take it off the bitmaps.
func appendValues(s *Store, r *rand.Rand, attr string, n, vals int) {
	base := time.Unix(0, 0).UTC()
	batch := make([]Entry, n)
	for i := range batch {
		batch[i] = Entry{Time: base.Add(time.Duration(r.Intn(6000)) * time.Second), Drift: r.Intn(3) == 0, SampleID: -1,
			Attrs: map[string]string{AttrWeather: fmt.Sprintf("w%d", r.Intn(6)), attr: fmt.Sprintf("a%d", r.Intn(vals))}}
	}
	s.AppendBatch(batch)
}

// floorTierThreshold is the tier-up threshold of the floor tests' stores: low
// enough that the device column tiers up on some seeds.
const floorTierThreshold = 30

// TestAttrValueCountsFloorMatchesScan is the differential contract of the
// floor: AttrValueCounts under random floors, exclusions, windows and
// overlays, over logs two interleaved writers wrote out of time order,
// against the scan reference (checkFloor). Views and Since deltas are
// queried as pinned; then after a Compact; then after a tier-up and a
// Compact that both land between the view's creation and its query; then
// while two writers append concurrently (make race runs it under -race),
// with a Compact and a tier-up between each view and its query.
func TestAttrValueCountsFloorMatchesScan(t *testing.T) {
	onKernelBodies(t, func(t *testing.T) {
		for seed := int64(0); seed < 6; seed++ {
			r := rand.New(rand.NewSource(seed))
			s := NewStoreWithSketch(SketchConfig{Threshold: floorTierThreshold})
			appendRandomTimed(s, r, 1500+r.Intn(1500), true)
			appendValues(s, r, "app", 200, floorTierThreshold/2)
			query := func(v *View, rows int, exact bool) {
				t.Helper()
				checkFloor(t, v, nil, nil, randomFloor(r, v, rows), exact)
				ovB, ovS := v.DriftOverlay(), v.DriftOverlay()
				defer ovB.Release()
				defer ovS.Release()
				conds := diffConds()[1+r.Intn(3)]
				v.ClearDrift(conds, ovB)
				refClearDrift(v, conds, ovS)
				checkFloor(t, v, ovB, ovS, randomFloor(r, v, rows), exact)
			}

			// Pinned, and a Since delta under the grown window's rows.
			from, to := randomWindow(r)
			prev := s.Window(from, to)
			appendRandomTimed(s, r, 500, true)
			v := s.Window(from, to)
			_, prevTo := prev.Bounds()
			delta, err := v.Since(prev.ShardRows(), prevTo)
			if err != nil {
				t.Fatal(err)
			}
			query(v, v.Len(), true)
			query(delta, v.Len(), true)

			// A Compact replaces the columns the view pinned.
			v = s.Window(randomWindow(r))
			s.Compact(time.Unix(int64(r.Intn(3000)), 0))
			query(v, v.Len(), true)

			// A tier-up and a Compact between the view and its query.
			v = s.Window(randomWindow(r))
			appendValues(s, r, "app", 300, 1000)
			if !slices.Contains(s.SketchedAttrs(), "app") {
				t.Fatalf("seed %d: app did not tier up: %v", seed, s.SketchedAttrs())
			}
			s.Compact(time.Unix(int64(3000+r.Intn(1000)), 0))
			query(v, v.Len(), false)

			// Two writers append while views are pinned, compacted under and
			// queried.
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := range 2 {
				wg.Add(1)
				go func(wr *rand.Rand) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						appendRandomTimed(s, wr, 64, true)
						appendValues(s, wr, "app", 8, 1000)
					}
				}(rand.New(rand.NewSource(seed*10 + int64(w))))
			}
			for k := range 4 {
				attr := fmt.Sprint("tier", k)
				appendValues(s, r, attr, 100, floorTierThreshold/2)
				v := s.Window(randomWindow(r))
				appendValues(s, r, attr, 100, 1000)
				s.Compact(time.Unix(int64(r.Intn(4000)), 0))
				query(v, v.Len()+r.Intn(200), false)
			}
			close(stop)
			wg.Wait()
		}
	})
}
