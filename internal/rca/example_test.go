package rca_test

import (
	"context"
	"fmt"
	"time"

	"nazar/internal/driftlog"
	"nazar/internal/rca"
)

// ExampleAnalyzeContext runs the full Algorithm 1 — FIM, set reduction and
// counterfactual analysis — on the paper's example drift log. The
// overlapping causes ({New York}, {snow, New York}, ...) that frequent
// itemset mining produces are pruned down to the single real cause.
func ExampleAnalyzeContext() {
	log := driftlog.NewStore()
	base := time.Date(2020, 1, 15, 6, 0, 0, 0, time.UTC)
	rows := []struct {
		device, weather, location string
		drift                     bool
	}{
		{"android_42", "clear-day", "Helsinki", false},
		{"android_21", "clear-day", "New York", false},
		{"android_21", "clear-day", "New York", true},
		{"android_21", "snow", "New York", true},
		{"android_42", "snow", "Helsinki", true},
	}
	for i, r := range rows {
		log.AppendBatch([]driftlog.Entry{{
			Time: base.Add(time.Duration(i) * time.Hour), Drift: r.drift, SampleID: -1,
			Attrs: map[string]string{
				driftlog.AttrDevice:   r.device,
				driftlog.AttrWeather:  r.weather,
				driftlog.AttrLocation: r.location,
			},
		}})
	}

	causes, err := rca.AnalyzeContext(context.Background(), log.All(), rca.DefaultConfig(), rca.Full)
	if err != nil {
		panic(err)
	}
	for _, c := range causes {
		fmt.Println(c)
	}
	// Output:
	// {snow}
}
