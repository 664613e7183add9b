package cloud

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/driftlog"
	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/tensor"
	"nazar/internal/weather"
)

// TestRetentionBoundsCleanPool: rows that LogRetention compacts away take
// their samples out of the clean pool and out of memory. 40 fog samples on
// day 0, 20 clear ones on day 5, a cumulative window at day 6 under 48 h
// retention: the clean version is the base adapted on the 20 retained
// samples, not on all 60 ever uploaded, and the log holds only those 20.
func TestRetentionBoundsCleanPool(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 3, tensor.NewRand(42, 1))
	cfg := DefaultConfig()
	cfg.LogRetention = 48 * time.Hour
	cfg.AdaptCfg.Rng = tensor.NewRand(7, 7)
	svc := NewService(base, cfg)
	rng := tensor.NewRand(43, 1)
	ingest := func(day time.Time, n int, cond string) *tensor.Matrix {
		xs := tensor.New(n, 8)
		for i := 0; i < n; i++ {
			for j := range xs.Row(i) {
				xs.Row(i)[j] = rng.NormFloat64()
			}
			err := ingestOne(svc, driftlog.Entry{
				Time:  day.Add(time.Duration(i) * time.Minute),
				Drift: cond == "fog",
				Attrs: map[string]string{driftlog.AttrWeather: cond, driftlog.AttrLocation: "Hamburg", driftlog.AttrDevice: "dev"},
			}, xs.Row(i))
			if err != nil {
				t.Fatal(err)
			}
		}
		return xs
	}
	ingest(weather.Day(0), 40, "fog")
	retained := ingest(weather.Day(5), 20, "clear-day")
	now := weather.Day(6)

	res, err := svc.RunWindowContext(context.Background(), time.Time{}, now, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Causes) != 0 || len(res.Versions) != 1 || !res.Versions[0].IsClean() {
		t.Fatalf("want one clean version and no cause over the retained rows, got causes %v and %d versions", res.Causes, len(res.Versions))
	}
	refCfg := cfg.AdaptCfg
	refCfg.Rng = tensor.NewRand(7, 7)
	want, err := adapt.WindowContext(context.Background(), base, nil, nil, cfg.MinSamplesPerCause, retained, refCfg, now)
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsBitEqual(t, res.Versions[0].Snapshot, nn.CaptureBN(want.Clean)) {
		t.Fatalf("clean version is not the base adapted on the %d samples the retained log holds (compacted rows' samples joined the pool)", retained.Rows)
	}
	if st := svc.Log().Stats(); st.Samples != retained.Rows || st.SamplesAdded != 60 {
		t.Fatalf("log holds %d of %d vectors after compaction, want the %d retained", st.Samples, st.SamplesAdded, retained.Rows)
	}
	fogIDs := make([]int64, 40)
	for i := range fogIDs {
		fogIDs[i] = int64(i)
	}
	if m := svc.Samples().Gather(fogIDs); m != nil {
		t.Fatalf("%d compacted fog samples still gather", m.Rows)
	}
}

// cleanSamplesRef is the clean-pool rule as the service applied it before
// the pool became a query on the window's view: every logged row in
// [from, to) with an uploaded sample whose attributes match no cause, by
// sample ID. It is the differential test's reference.
func cleanSamplesRef(log *driftlog.Store, causes []rca.Cause, from, to time.Time) []int64 {
	var ids []int64
	log.Each(func(_ int, e driftlog.Entry) {
		if e.SampleID < 0 || (!from.IsZero() && e.Time.Before(from)) || (!to.IsZero() && !e.Time.Before(to)) {
			return
		}
		if rca.AssignCause(causes, e.Attrs) == -1 {
			ids = append(ids, e.SampleID)
		}
	})
	slices.Sort(ids)
	return ids
}

// ingestTwoWriters fills svc from two concurrent writers, each streaming
// small batches of random rows over eight hours of day — so sample IDs
// land in the log out of row order. About a third of the rows carry no
// sample and one in twenty has no location; firmware has 60 values, so
// under a lowered tier-up threshold it drops its bitmaps.
func ingestTwoWriters(t *testing.T, svc *Service, day time.Time, seed uint64) {
	t.Helper()
	var wg sync.WaitGroup
	for w := uint64(0); w < 2; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for batch := 0; batch < 60; batch++ {
				n := 1 + rng.IntN(8)
				entries := make([]driftlog.Entry, n)
				samples := make([][]float64, n)
				for i := range entries {
					attrs := map[string]string{
						driftlog.AttrWeather: []string{"fog", "snow", "clear-day"}[rng.IntN(3)],
						"firmware":           fmt.Sprintf("fw-%d", rng.IntN(60)),
					}
					if rng.IntN(20) != 0 {
						attrs[driftlog.AttrLocation] = []string{"Hamburg", "Zurich", "Bremen"}[rng.IntN(3)]
					}
					entries[i] = driftlog.Entry{
						Time:  day.Add(time.Duration(rng.IntN(8*60)) * time.Minute),
						Drift: rng.IntN(2) == 0,
						Attrs: attrs,
					}
					if rng.IntN(3) != 0 {
						samples[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
					}
				}
				if err := svc.IngestBatchContext(context.Background(), entries, samples); err != nil {
					t.Error(err)
					return
				}
			}
		}(tensor.NewRand(seed, w))
	}
	wg.Wait()
}

// TestCleanSamplesMatchReference: the clean pool read from the window's
// view is the reference rule's ID list exactly, gathered by ID — with
// concurrent writers, no, one or three causes (one on a tiered
// attribute), and bounded and unbounded windows.
func TestCleanSamplesMatchReference(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 2, 3, tensor.NewRand(42, 1))
	day := weather.Day(3)
	fog := rca.Cause{Items: []driftlog.Cond{{Attr: driftlog.AttrWeather, Value: "fog"}}}
	causeSets := [][]rca.Cause{
		nil,
		{fog},
		{
			fog,
			{Items: []driftlog.Cond{{Attr: driftlog.AttrLocation, Value: "Zurich"}, {Attr: driftlog.AttrWeather, Value: "snow"}}},
			{Items: []driftlog.Cond{{Attr: "firmware", Value: "fw-7"}}},
		},
	}
	windows := [][2]time.Time{{}, {day.Add(2 * time.Hour), day.Add(5 * time.Hour)}}
	interleaved := 0
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultConfig()
		cfg.Sketch.Threshold = 16
		svc := NewService(base, cfg)
		ingestTwoWriters(t, svc, day, seed)
		if !slices.Contains(svc.Log().SketchedAttrs(), "firmware") {
			t.Fatalf("firmware did not tier up: %v", svc.Log().SketchedAttrs())
		}
		if rowOrder, _ := svc.Log().All().SampleIDs(nil); !slices.IsSorted(rowOrder) {
			interleaved++
		}
		for _, w := range windows {
			v := svc.Log().Window(w[0], w[1])
			for _, causes := range causeSets {
				got := stack(cleanSamples(v, causes))
				ids := cleanSamplesRef(svc.Log(), causes, w[0], w[1])
				want := svc.Samples().Gather(ids)
				if len(ids) == 0 || want.Rows != len(ids) || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d window %v, %d causes: clean pool %v, reference %d ids gathering %v", seed, w, len(causes), got, len(ids), want)
				}
			}
		}
	}
	// The writers interleave on any multi-core run; a scheduler that ran
	// them back to back leaves the test weaker, not wrong.
	t.Logf("%d of 3 logs hold sample IDs out of row order", interleaved)
}
