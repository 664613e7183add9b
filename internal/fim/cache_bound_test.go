package fim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"nazar/internal/driftlog"
)

// TestMineCacheBound shrinks the cross-window retention budget and
// checks the refuse-to-store contract: an over-budget cache drops every
// count map (a partial cache would silently undercount on merge) and
// the next window simply mines fresh, still correctly.
func TestMineCacheBound(t *testing.T) {
	saved := mineCacheMaxEntries
	mineCacheMaxEntries = 4
	defer func() { mineCacheMaxEntries = saved }()

	th := DefaultThresholds()
	s := synthLog(rand.New(rand.NewSource(5)), 3000)
	v1 := s.All()
	prevRows := v1.ShardRows()
	_, prevTo := v1.Bounds()

	before := MineCacheRefusals()
	_, cache1, err := MineCachedContext(context.Background(), NewSupportCache(v1), nil, nil, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	if MineCacheRefusals() == before {
		t.Fatal("over-budget cache was not refused")
	}
	if cache1.Size() != 0 {
		t.Fatalf("refused cache retains %d entries, want 0", cache1.Size())
	}
	if cache1.complete {
		t.Fatal("refused cache still marked complete")
	}

	// The emptied cache must degrade to a fresh mine, not a wrong one.
	s.AppendBatch([]driftlog.Entry{{
		Time: time.Unix(2000, 0).UTC(), Drift: true, SampleID: -1,
		Attrs: map[string]string{driftlog.AttrWeather: "snow", driftlog.AttrLocation: "city_1"},
	}})
	v2 := s.All()
	delta, err := v2.Since(prevRows, prevTo)
	if err != nil {
		t.Fatal(err)
	}
	resInc, _, err := MineCachedContext(context.Background(), NewSupportCache(v2), delta, cache1, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	resFresh, _, err := MineCachedContext(context.Background(), NewSupportCache(v2), nil, nil, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resInc, resFresh) {
		t.Fatalf("mine after refusal diverges from fresh\ninc   %v\nfresh %v", resInc, resFresh)
	}
}
