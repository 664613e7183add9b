package driftlog_test

import (
	"fmt"
	"time"

	"nazar/internal/driftlog"
)

// ExampleView_Count shows the aggregation surface root-cause analysis
// mines: predicate counting with drift totals, exactly the SQL COUNT
// queries the paper runs on Aurora.
func ExampleView_Count() {
	log := driftlog.NewStore()
	day := time.Date(2020, 1, 15, 0, 0, 0, 0, time.UTC)
	add := func(hour int, weather string, drift bool) {
		log.AppendBatch([]driftlog.Entry{{
			Time: day.Add(time.Duration(hour) * time.Hour), Drift: drift, SampleID: -1,
			Attrs: map[string]string{driftlog.AttrWeather: weather, driftlog.AttrDevice: "android_1"},
		}})
	}
	add(6, "clear-day", false)
	add(8, "snow", true)
	add(9, "snow", true)
	add(11, "clear-day", false)

	view := log.All()
	snow, _ := view.Count([]driftlog.Cond{{Attr: driftlog.AttrWeather, Value: "snow"}}, nil)
	fmt.Printf("snow entries: %d total, %d drifted\n", snow.Total, snow.Drift)

	// Counterfactual overlay: mark the snow drift as explained and
	// re-count without mutating the log.
	overlay := view.DriftOverlay()
	cleared, _ := view.ClearDrift([]driftlog.Cond{{Attr: driftlog.AttrWeather, Value: "snow"}}, overlay)
	after, _ := view.Count(nil, overlay)
	fmt.Printf("cleared %d flags; remaining drift: %d\n", cleared, after.Drift)
	// Output:
	// snow entries: 2 total, 2 drifted
	// cleared 2 flags; remaining drift: 0
}
