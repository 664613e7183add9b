package driftlog

import (
	"fmt"
	"testing"
	"time"

	"nazar/internal/tensor"
)

// allocStore builds a moderate log whose every attribute/value the
// steady-state queries below touch.
func allocStore(n int) *Store {
	s := NewStore()
	base := time.Unix(0, 0).UTC()
	var batch []Entry
	for i := 0; i < n; i++ {
		batch = append(batch, Entry{
			Time:     base.Add(time.Duration(i) * time.Millisecond),
			Drift:    i%3 == 0,
			SampleID: -1,
			Attrs: map[string]string{
				AttrWeather:  []string{"clear-day", "rain", "snow"}[i%3],
				AttrLocation: fmt.Sprintf("city_%d", i%8),
				AttrDevice:   fmt.Sprintf("dev_%d", i%16),
			},
		})
	}
	s.AppendBatch(batch)
	return s
}

// TestCountSteadyStateAllocs: the bitset Count path must be allocation-
// free — it runs once per candidate itemset inside apriori, thousands of
// times per window.
func TestCountSteadyStateAllocs(t *testing.T) {
	tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(0)

	v := allocStore(5000).All()
	conds := []Cond{{AttrWeather, "rain"}, {AttrLocation, "city_3"}}
	if _, err := v.Count(conds, nil); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := v.Count(conds, nil); err != nil {
			t.Fatal(err)
		}
	}); n > 0.5 {
		t.Fatalf("steady-state Count allocates %v per run, want ~0", n)
	}
}

// TestOverlayCycleSteadyStateAllocs: a full counterfactual overlay
// cycle — acquire, clear, count against it, release — must recycle its
// word buffers through the pools after warm-up.
func TestOverlayCycleSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(0)

	v := allocStore(5000).All()
	conds := []Cond{{AttrWeather, "snow"}}
	// Warm the overlay and word pools.
	for i := 0; i < 3; i++ {
		ov := v.DriftOverlay()
		if _, err := v.ClearDrift(conds, ov); err != nil {
			t.Fatal(err)
		}
		ov.Release()
	}
	if n := testing.AllocsPerRun(50, func() {
		ov := v.DriftOverlay()
		if _, err := v.ClearDrift(conds, ov); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Count(conds, ov); err != nil {
			t.Fatal(err)
		}
		ov.Release()
	}); n > 0.5 {
		t.Fatalf("steady-state overlay cycle allocates %v per run, want ~0", n)
	}
}
