package fim_test

import (
	"context"
	"fmt"
	"time"

	"nazar/internal/driftlog"
	"nazar/internal/fim"
)

// ExampleMineContext reproduces the paper's Table 2 → Table 3 walkthrough: five
// drift-log entries in which snowy weather is the real cause of drift.
func ExampleMineContext() {
	log := driftlog.NewStore()
	base := time.Date(2020, 1, 15, 6, 0, 0, 0, time.UTC)
	rows := []struct {
		device, weather, location string
		drift                     bool
	}{
		{"android_42", "clear-day", "Helsinki", false},
		{"android_21", "clear-day", "New York", false},
		{"android_21", "clear-day", "New York", true}, // false positive
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

	results, err := fim.MineContext(context.Background(), log.All(), nil, fim.DefaultThresholds())
	if err != nil {
		panic(err)
	}
	top := results[0]
	fmt.Printf("top cause: %s\n", top.Items)
	fmt.Printf("occurrence=%.1f support=%.2f confidence=%.1f risk-ratio=%.1f\n",
		top.Metrics.Occurrence, top.Metrics.Support, top.Metrics.Confidence, top.Metrics.RiskRatio)
	// Output:
	// top cause: {snow}
	// occurrence=0.4 support=0.67 confidence=1.0 risk-ratio=3.0
}
