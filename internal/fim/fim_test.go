package fim

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"nazar/internal/driftlog"
)

// paperLog builds the Table 2 drift log.
func paperLog() *driftlog.Store {
	s := driftlog.NewStore()
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
		s.AppendBatch([]driftlog.Entry{{
			Time:     base.Add(time.Duration(i) * time.Hour),
			Drift:    r.drift,
			SampleID: -1,
			Attrs: map[string]string{
				driftlog.AttrDevice:   r.device,
				driftlog.AttrWeather:  r.weather,
				driftlog.AttrLocation: r.location,
			},
		}})
	}
	return s
}

func TestItemsetCanonical(t *testing.T) {
	a := NewItemset(
		driftlog.Cond{Attr: "weather", Value: "snow"},
		driftlog.Cond{Attr: "location", Value: "NY"},
	)
	b := NewItemset(
		driftlog.Cond{Attr: "location", Value: "NY"},
		driftlog.Cond{Attr: "weather", Value: "snow"},
	)
	if a.Key() != b.Key() {
		t.Fatalf("canonical keys differ: %q vs %q", a.Key(), b.Key())
	}
	if a.String() != "{NY, snow}" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestSubsetOf(t *testing.T) {
	snow := NewItemset(driftlog.Cond{Attr: "weather", Value: "snow"})
	snowNY := NewItemset(
		driftlog.Cond{Attr: "weather", Value: "snow"},
		driftlog.Cond{Attr: "location", Value: "NY"},
	)
	if !snow.SubsetOf(snowNY) {
		t.Fatal("snow ⊆ snow+NY")
	}
	if snowNY.SubsetOf(snow) {
		t.Fatal("snow+NY ⊄ snow")
	}
	rain := NewItemset(driftlog.Cond{Attr: "weather", Value: "rain"})
	if rain.SubsetOf(snowNY) {
		t.Fatal("rain ⊄ snow+NY")
	}
}

func TestComputeMetricsPaperSnowRow(t *testing.T) {
	// Table 3 rank 0, {snow}: occ 0.4, sup 0.67, RR 3, conf 1.
	m := ComputeMetrics(driftlog.CountResult{Total: 2, Drift: 2}, 5, 3)
	if math.Abs(m.Occurrence-0.4) > 1e-12 {
		t.Fatalf("occ %v", m.Occurrence)
	}
	if math.Abs(m.Support-2.0/3) > 1e-12 {
		t.Fatalf("sup %v", m.Support)
	}
	if m.Confidence != 1 {
		t.Fatalf("conf %v", m.Confidence)
	}
	if math.Abs(m.RiskRatio-3) > 1e-12 {
		t.Fatalf("rr %v", m.RiskRatio)
	}
}

func TestComputeMetricsSnowHelsinkiRow(t *testing.T) {
	// Table 3: {snow, Helsinki} has risk ratio 2 (P=1 inside vs 1/2
	// outside).
	m := ComputeMetrics(driftlog.CountResult{Total: 1, Drift: 1}, 5, 3)
	if math.Abs(m.RiskRatio-2) > 1e-12 {
		t.Fatalf("rr %v", m.RiskRatio)
	}
}

func TestComputeMetricsEdgeCases(t *testing.T) {
	// Set covering everything: no contrast group -> neutral risk, so it
	// cannot pass the 1.1 threshold and hijack counterfactual analysis.
	m := ComputeMetrics(driftlog.CountResult{Total: 5, Drift: 3}, 5, 3)
	if m.RiskRatio != 1 {
		t.Fatalf("rr %v", m.RiskRatio)
	}
	// No drift anywhere outside (but outside rows exist) -> infinite.
	m = ComputeMetrics(driftlog.CountResult{Total: 2, Drift: 3}, 5, 3)
	if !math.IsInf(m.RiskRatio, 1) {
		t.Fatalf("rr %v", m.RiskRatio)
	}
	// Zero-confidence set: RR 0, not NaN.
	m = ComputeMetrics(driftlog.CountResult{Total: 2, Drift: 0}, 5, 3)
	if m.RiskRatio != 0 || m.Confidence != 0 {
		t.Fatalf("%+v", m)
	}
}

func TestMinePaperExample(t *testing.T) {
	v := paperLog().All()
	results, err := MineContext(context.Background(), v, nil, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	// Top-ranked cause must be {snow} with RR 3, exactly like Table 3.
	top := results[0]
	if top.Items.Key() != "weather=snow" {
		t.Fatalf("top cause = %s", top.Items)
	}
	if math.Abs(top.Metrics.RiskRatio-3) > 1e-12 {
		t.Fatalf("top RR = %v", top.Metrics.RiskRatio)
	}
	// The paper's Table 3 keeps 7 passing rows (the top seven pass all
	// four thresholds). Verify each result passes and that {snow, New
	// York} and {snow, Helsinki} appear.
	th := DefaultThresholds()
	keys := map[string]bool{}
	for _, r := range results {
		if !th.Passes(r.Metrics) {
			t.Fatalf("result %s fails thresholds: %+v", r.Items, r.Metrics)
		}
		keys[r.Items.Key()] = true
	}
	for _, want := range []string{"location=New York|weather=snow", "location=Helsinki|weather=snow",
		"device=android_21|weather=snow", "device=android_42|weather=snow"} {
		if !keys[want] {
			t.Fatalf("missing expected cause %s (have %v)", want, keys)
		}
	}
	// Ranking is monotone in risk ratio.
	for i := 1; i < len(results); i++ {
		if results[i].Metrics.RiskRatio > results[i-1].Metrics.RiskRatio+1e-12 {
			t.Fatal("results not sorted by risk ratio")
		}
	}
}

func TestMineRespectsMaxItems(t *testing.T) {
	v := paperLog().All()
	th := DefaultThresholds()
	th.MaxItems = 1
	results, err := MineContext(context.Background(), v, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if len(r.Items) > 1 {
			t.Fatalf("itemset %s exceeds MaxItems", r.Items)
		}
	}
}

func TestMineExcludeAttrs(t *testing.T) {
	v := paperLog().All()
	th := DefaultThresholds()
	th.ExcludeAttrs = []string{driftlog.AttrDevice}
	results, err := MineContext(context.Background(), v, nil, th)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		for _, c := range r.Items {
			if c.Attr == driftlog.AttrDevice {
				t.Fatalf("excluded attribute leaked into %s", r.Items)
			}
		}
	}
}

func TestMineNoDrift(t *testing.T) {
	s := driftlog.NewStore()
	s.AppendBatch([]driftlog.Entry{{Time: time.Now(), Drift: false, SampleID: -1,
		Attrs: map[string]string{"weather": "snow"}}})
	results, err := MineContext(context.Background(), s.All(), nil, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if results != nil {
		t.Fatal("no drift should yield no causes")
	}
}

func TestMineWithOverlay(t *testing.T) {
	v := paperLog().All()
	overlay := v.DriftOverlay()
	// Counterfactually remove the snow drifts.
	if _, err := v.ClearDrift([]driftlog.Cond{{Attr: driftlog.AttrWeather, Value: "snow"}}, overlay); err != nil {
		t.Fatal(err)
	}
	results, err := MineContext(context.Background(), v, overlay, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Items.Key() == "weather=snow" {
			t.Fatal("{snow} should no longer be a cause after overlay")
		}
	}
}

func TestRescore(t *testing.T) {
	v := paperLog().All()
	snow := NewItemset(driftlog.Cond{Attr: driftlog.AttrWeather, Value: "snow"})
	r, err := RescoreCached(NewSupportCache(v), snow, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Counts.Total != 2 || r.Counts.Drift != 2 {
		t.Fatalf("rescore counts %+v", r.Counts)
	}
	overlay := v.DriftOverlay()
	if _, err := v.ClearDrift(snow, overlay); err != nil {
		t.Fatal(err)
	}
	r2, err := RescoreCached(NewSupportCache(v), snow, overlay)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Counts.Drift != 0 {
		t.Fatalf("overlaid rescore %+v", r2.Counts)
	}
}

func TestJoinRules(t *testing.T) {
	snow := NewItemset(driftlog.Cond{Attr: "weather", Value: "snow"})
	rain := NewItemset(driftlog.Cond{Attr: "weather", Value: "rain"})
	ny := NewItemset(driftlog.Cond{Attr: "location", Value: "NY"})
	if _, ok := join(snow, rain); ok {
		t.Fatal("two values of one attribute must not join")
	}
	cand, ok := join(snow, ny)
	if !ok || len(cand) != 2 {
		t.Fatalf("join failed: %v %v", cand, ok)
	}
}

func TestMetricsJSONRoundTrip(t *testing.T) {
	cases := []Metrics{
		{Occurrence: 0.4, Support: 0.67, Confidence: 1, RiskRatio: 3, SmoothedRiskRatio: 1.2},
		{Occurrence: 0.1, Support: 0.2, Confidence: 0.6, RiskRatio: math.Inf(1), SmoothedRiskRatio: 2.5},
	}
	for _, m := range cases {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var back Metrics
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != m {
			t.Fatalf("round trip %+v != %+v", back, m)
		}
	}
	var bad Metrics
	if err := json.Unmarshal([]byte(`{"risk_ratio":"nan"}`), &bad); err == nil {
		t.Fatal("unknown sentinel must error")
	}
}

func TestMinePairPathMatchesDirectCounts(t *testing.T) {
	// Every level-2 itemset produced via the single-pass pair counting
	// must carry exactly the counts a direct scan gives.
	v := paperLog().All()
	results, err := MineContext(context.Background(), v, nil, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if len(r.Items) != 2 {
			continue
		}
		direct, err := v.Count(r.Items, nil)
		if err != nil {
			t.Fatal(err)
		}
		if direct != r.Counts {
			t.Fatalf("%s: mined %+v direct %+v", r.Items, r.Counts, direct)
		}
	}
}
