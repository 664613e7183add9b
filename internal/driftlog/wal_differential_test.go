package driftlog_test

// Randomized differential tests: a store rebuilt by WAL replay must be
// indistinguishable from the live store it mirrors — not just row for
// row, but through every aggregation path the analysis pipeline uses
// (Count, AttrValueCounts, PairCounts, and full FIM mining), at pool
// width 1 (fully sequential) and 8 (parallel reduction). Row counts are
// deliberately odd (67, 129, ...) so shard fills are unbalanced and the
// last bitset word of every shard is partial.

import (
	"context"
	"fmt"
	mrand "math/rand/v2"
	"reflect"
	"testing"
	"time"

	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/tensor"
)

// diffBatches fabricates a randomized batch sequence: rows rows total,
// random batch sizes, attribute values drawn from small pools so FIM
// has support to find.
func diffBatches(seed uint64, rows int) [][]driftlog.Entry {
	rng := mrand.New(mrand.NewPCG(seed, seed^0xA5A5))
	devices := []string{"d0", "d1", "d2", "d3", "d4", "d5", "d6"}
	weathers := []string{"clear", "snow", "rain", "fog"}
	locations := []string{"north", "south", "east"}
	base := int64(1_700_000_000_000_000_000)
	var batches [][]driftlog.Entry
	k := 0
	for k < rows {
		n := 1 + rng.IntN(9)
		if k+n > rows {
			n = rows - k
		}
		batch := make([]driftlog.Entry, n)
		for i := range batch {
			w := weathers[rng.IntN(len(weathers))]
			batch[i] = driftlog.Entry{
				Time: time.Unix(0, base+int64(k)*1e9).UTC(),
				Attrs: map[string]string{
					driftlog.AttrDevice:   devices[rng.IntN(len(devices))],
					driftlog.AttrWeather:  w,
					driftlog.AttrLocation: locations[rng.IntN(len(locations))],
				},
				// Snow drifts often, everything else rarely: gives Mine
				// a real cause to rank.
				Drift:    (w == "snow" && rng.IntN(10) < 8) || rng.IntN(50) == 0,
				SampleID: int64(k),
			}
			k++
		}
		batches = append(batches, batch)
	}
	return batches
}

// requireSameAnalysis runs every aggregation the pipeline uses on both
// stores and requires identical results.
func requireSameAnalysis(t *testing.T, label string, live, replayed *driftlog.Store) {
	t.Helper()
	lv, rv := live.All(), replayed.All()
	lov, rov := lv.DriftOverlay(), rv.DriftOverlay()

	for _, conds := range [][]driftlog.Cond{
		{{Attr: driftlog.AttrWeather, Value: "snow"}},
		{{Attr: driftlog.AttrWeather, Value: "clear"}, {Attr: driftlog.AttrLocation, Value: "north"}},
		{{Attr: driftlog.AttrDevice, Value: "d3"}},
	} {
		lc, lerr := lv.Count(conds, lov)
		rc, rerr := rv.Count(conds, rov)
		if (lerr == nil) != (rerr == nil) {
			t.Fatalf("%s: Count(%v) errors diverge: %v vs %v", label, conds, lerr, rerr)
		}
		if lc != rc {
			t.Fatalf("%s: Count(%v): live %+v replayed %+v", label, conds, lc, rc)
		}
	}
	if !reflect.DeepEqual(valueMap(lv.AttrValueCounts(lov)), valueMap(rv.AttrValueCounts(rov))) {
		t.Fatalf("%s: AttrValueCounts diverge", label)
	}
	if !reflect.DeepEqual(lv.PairCounts(lov, nil), rv.PairCounts(rov, nil)) {
		t.Fatalf("%s: PairCounts diverge", label)
	}

	th := fim.DefaultThresholds()
	lm, lerr := fim.MineContext(context.Background(), lv, lov, th)
	rm, rerr := fim.MineContext(context.Background(), rv, rov, th)
	if (lerr == nil) != (rerr == nil) {
		t.Fatalf("%s: Mine errors diverge: %v vs %v", label, lerr, rerr)
	}
	if !reflect.DeepEqual(lm, rm) {
		t.Fatalf("%s: Mine results diverge:\nlive:     %+v\nreplayed: %+v", label, lm, rm)
	}
}

func TestWALReplayDifferential(t *testing.T) {
	for _, rows := range []int{67, 129, 257} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("rows=%d/seed=%d", rows, seed), func(t *testing.T) {
				dir := t.TempDir()
				live := driftlog.NewStore()
				// Small segments + auto-compaction: replay crosses
				// sealed and active segments, and the background passes
				// (no cutoff set) must delete nothing.
				w, err := driftlog.OpenWAL(dir, driftlog.NewStore(), driftlog.WALOptions{
					SegmentBytes:    1 << 10,
					CompactSegments: 3,
				})
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				for _, batch := range diffBatches(seed, rows) {
					if err := w.AppendColumns(driftlog.ColumnsFromEntries(batch)); err != nil {
						t.Fatalf("append: %v", err)
					}
					live.AppendBatch(batch)
				}
				if err := w.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				if err := w.CompactionErr(); err != nil {
					t.Fatalf("background compaction: %v", err)
				}

				replayed := driftlog.NewStore()
				w2, err := driftlog.OpenWAL(dir, replayed, driftlog.WALOptions{})
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				if err := w2.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				if replayed.Len() != rows {
					t.Fatalf("rows: want %d got %d", rows, replayed.Len())
				}

				// Pool width 1 (sequential) and 8 (parallel): the
				// analysis answers must not depend on either the worker
				// pool or which store produced them.
				for _, workers := range []int{1, 8} {
					tensor.SetMaxWorkers(workers)
					requireSameAnalysis(t, fmt.Sprintf("workers=%d", workers), live, replayed)
				}
				tensor.SetMaxWorkers(0)
			})
		}
	}
}

// valueMap is the map form of a level-1 group-by: per attribute, every value
// the window holds with its counts.
func valueMap(acs []driftlog.AttrCounts) map[string]map[string]driftlog.CountResult {
	out := make(map[string]map[string]driftlog.CountResult, len(acs))
	for _, ac := range acs {
		byVal := map[string]driftlog.CountResult{}
		for id, cr := range ac.Counts {
			if cr.Total > 0 {
				byVal[ac.Dict[id]] = cr
			}
		}
		out[ac.Name] = byVal
	}
	return out
}
