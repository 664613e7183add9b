package rca

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/metrics"
	"nazar/internal/tensor"
	"nazar/internal/weather"
)

// paperLog is the Table 2 example.
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
			Time: base.Add(time.Duration(i) * time.Hour), Drift: r.drift, SampleID: -1,
			Attrs: map[string]string{
				driftlog.AttrDevice:   r.device,
				driftlog.AttrWeather:  r.weather,
				driftlog.AttrLocation: r.location,
			},
		}})
	}
	return s
}

func TestSetReductionMergesIntoHighestRank(t *testing.T) {
	v := paperLog().All()
	results, err := fim.MineContext(context.Background(), v, nil, fim.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	assocs := SetReduction(results)
	// {snow} must be the first coarse key, and {snow, New York} must be
	// merged under it, not under {New York}.
	if assocs[0].Coarse.Items.Key() != "weather=snow" {
		t.Fatalf("first coarse key %s", assocs[0].Coarse.Items)
	}
	foundSnowNY := false
	for _, sub := range assocs[0].Subsets {
		if sub.Items.Key() == "location=New York|weather=snow" {
			foundSnowNY = true
		}
	}
	if !foundSnowNY {
		t.Fatal("{snow, New York} not merged into {snow}")
	}
	for _, a := range assocs[1:] {
		for _, sub := range a.Subsets {
			if sub.Items.Key() == "location=New York|weather=snow" {
				t.Fatal("{snow, New York} merged into a lower-ranked key")
			}
		}
	}
	// Every mined result appears exactly once across coarse keys and
	// subsets.
	total := 0
	for _, a := range assocs {
		total += 1 + len(a.Subsets)
	}
	if total != len(results) {
		t.Fatalf("set reduction lost results: %d of %d", total, len(results))
	}
}

func TestFullAnalysisPaperExample(t *testing.T) {
	v := paperLog().All()
	causes, err := AnalyzeContext(context.Background(), v, DefaultConfig(), Full)
	if err != nil {
		t.Fatal(err)
	}
	if len(causes) == 0 {
		t.Fatal("no causes found")
	}
	// The paper's walkthrough: snow is the real cause; counterfactual
	// analysis should suppress {New York} (its drift is covered by snow
	// except a single false positive).
	if causes[0].Key() != "weather=snow" {
		t.Fatalf("top cause %s", causes[0])
	}
	for _, c := range causes {
		if c.Key() == "location=New York" {
			t.Fatal("{New York} should be eliminated by counterfactual analysis")
		}
	}
}

func TestModeOrdering(t *testing.T) {
	// FIM-only must produce at least as many causes as set reduction,
	// which must produce at least as many as the full analysis.
	v := paperLog().All()
	counts := map[Mode]int{}
	for _, m := range []Mode{FIMOnly, FIMSetReduction, Full} {
		causes, err := AnalyzeContext(context.Background(), v, DefaultConfig(), m)
		if err != nil {
			t.Fatal(err)
		}
		counts[m] = len(causes)
	}
	if counts[FIMOnly] < counts[FIMSetReduction] || counts[FIMSetReduction] < counts[Full] {
		t.Fatalf("pruning not monotone: %v", counts)
	}
	if counts[Full] == 0 {
		t.Fatal("full analysis found nothing")
	}
}

func TestCauseMatching(t *testing.T) {
	c := Cause{Items: fim.NewItemset(
		driftlog.Cond{Attr: "weather", Value: "snow"},
		driftlog.Cond{Attr: "location", Value: "NY"},
	)}
	if !c.Matches(map[string]string{"weather": "snow", "location": "NY", "device": "d1"}) {
		t.Fatal("should match")
	}
	if c.Matches(map[string]string{"weather": "snow"}) {
		t.Fatal("missing attribute should not match")
	}
	if got := c.MatchCount(map[string]string{"weather": "snow", "location": "LA"}); got != 1 {
		t.Fatalf("MatchCount = %d", got)
	}
}

func TestAssignCause(t *testing.T) {
	causes := []Cause{
		{Items: fim.NewItemset(driftlog.Cond{Attr: "weather", Value: "snow"})},
		{Items: fim.NewItemset(driftlog.Cond{Attr: "weather", Value: "rain"})},
	}
	if AssignCause(causes, map[string]string{"weather": "rain"}) != 1 {
		t.Fatal("rain should match cause 1")
	}
	if AssignCause(causes, map[string]string{"weather": "clear-day"}) != -1 {
		t.Fatal("clear day matches nothing")
	}
	if CauseLabel(causes, -1) != "clean" {
		t.Fatal("clean label")
	}
	if CauseLabel(causes, 0) != "weather=snow" {
		t.Fatal("cause label")
	}
}

// buildScenario synthesizes a drift log driven by weather over several
// locations, where the true causes are the given weather conditions, with
// detection noise. Returns the store plus per-row ground-truth labels.
func buildScenario(trueCauses []weather.Condition, seed uint64) (*driftlog.Store, []string, []map[string]string) {
	rng := tensor.NewRand(seed, 0x5CE)
	gen := weather.NewGenerator(seed)
	s := driftlog.NewStore()
	var truth []string
	var attrs []map[string]string
	isCause := map[weather.Condition]bool{}
	for _, c := range trueCauses {
		isCause[c] = true
	}
	locs := weather.AnimalsLocations
	for d := 0; d < 14; d++ {
		day := weather.Day(d)
		for _, loc := range locs {
			cond, _ := gen.ConditionAt(loc, day)
			for dev := 0; dev < 4; dev++ {
				for k := 0; k < 2; k++ {
					drifted := isCause[cond]
					label := "clean"
					if drifted {
						label = string(cond)
					}
					// Noisy detector: 85% recall, 10% false positives.
					detected := false
					if drifted {
						detected = rng.Float64() < 0.85
					} else {
						detected = rng.Float64() < 0.10
					}
					a := map[string]string{
						driftlog.AttrWeather:  string(cond),
						driftlog.AttrLocation: loc,
						driftlog.AttrDevice:   loc + "-dev",
					}
					s.AppendBatch([]driftlog.Entry{{
						Time: day.Add(time.Duration(dev) * time.Hour), Drift: detected,
						SampleID: -1, Attrs: a,
					}})
					truth = append(truth, label)
					attrs = append(attrs, a)
				}
			}
		}
	}
	return s, truth, attrs
}

func TestScenarioFullBeatsOrMatchesFIM(t *testing.T) {
	// Table 5's qualitative claim: FIM + set reduction + counterfactual
	// analysis yields the best (or equal) Fowlkes–Mallows score.
	for _, scenario := range [][]weather.Condition{
		{weather.Snow},
		{weather.Rain, weather.Fog},
		{weather.Rain, weather.Snow, weather.Fog},
	} {
		s, truth, attrs := buildScenario(scenario, 2)
		v := s.All()
		score := func(mode Mode) float64 {
			causes, err := AnalyzeContext(context.Background(), v, DefaultConfig(), mode)
			if err != nil {
				t.Fatal(err)
			}
			pred := make([]string, len(truth))
			for i := range truth {
				pred[i] = CauseLabel(causes, AssignCause(causes, attrs[i]))
			}
			return metrics.FowlkesMallows(truth, pred)
		}
		fimScore := score(FIMOnly)
		fullScore := score(Full)
		if fullScore+1e-9 < fimScore {
			t.Fatalf("scenario %v: full %v < fim %v", scenario, fullScore, fimScore)
		}
		if fullScore < 0.7 {
			t.Fatalf("scenario %v: full FMS %v too low", scenario, fullScore)
		}
	}
}

func TestCounterfactualSuppressesCoveredCauses(t *testing.T) {
	s, _, _ := buildScenario([]weather.Condition{weather.Snow}, 2)
	causes, err := AnalyzeContext(context.Background(), s.All(), DefaultConfig(), Full)
	if err != nil {
		t.Fatal(err)
	}
	// The true cause is snow alone: the full analysis must find a snow
	// cause and should produce very few causes overall.
	foundSnow := false
	for _, c := range causes {
		for _, cond := range c.Items {
			if cond.Attr == driftlog.AttrWeather && cond.Value == "snow" {
				foundSnow = true
			}
		}
	}
	if !foundSnow {
		t.Fatalf("snow not identified; causes: %v", causes)
	}
	fimCauses, err := AnalyzeContext(context.Background(), s.All(), DefaultConfig(), FIMOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(causes) >= len(fimCauses) && len(fimCauses) > 1 {
		t.Fatalf("counterfactual analysis did not prune: full=%d fim=%d", len(causes), len(fimCauses))
	}
}

func TestModeString(t *testing.T) {
	if FIMOnly.String() != "fim" || Full.String() != "fim+set-reduction+cf" {
		t.Fatal("mode strings")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Fatal("unknown mode string")
	}
}

func TestAnalyzeUnknownMode(t *testing.T) {
	if _, err := AnalyzeContext(context.Background(), paperLog().All(), DefaultConfig(), Mode(42)); err == nil {
		t.Fatal("expected error")
	}
}

func TestAnalyzeEmptyLog(t *testing.T) {
	causes, err := AnalyzeContext(context.Background(), driftlog.NewStore().All(), DefaultConfig(), Full)
	if err != nil {
		t.Fatal(err)
	}
	if len(causes) != 0 {
		t.Fatal("empty log should yield no causes")
	}
}

// TestCounterfactualDoesNotAliasSupportKeys is the regression for the memo
// aliasing bug at the place it did harm: the value "x|b=y" of attribute a
// arrives off the wire unvalidated, its single-condition itemset fails its
// rescore (no drift) without clearing anything, and the pair {a=x, b=y} —
// the true cause — is rescored next under the same overlay epoch. With the
// old key "a=x|b=y" for both, the pair read the single condition's
// 300-rows-no-drift from the memo and was dropped.
func TestCounterfactualDoesNotAliasSupportKeys(t *testing.T) {
	s := driftlog.NewStore()
	var batch []driftlog.Entry
	row := func(i int, drift bool, attrs map[string]string) {
		batch = append(batch, driftlog.Entry{Time: time.Unix(int64(i), 0), Drift: drift, SampleID: -1, Attrs: attrs})
	}
	for i := 0; i < 300; i++ {
		row(i, false, map[string]string{"a": "x|b=y"})
		row(i, true, map[string]string{"a": "x", "b": "y"})
		row(i, false, map[string]string{"a": "z", "b": "w"})
	}
	s.AppendBatch(batch)
	assocs := []Association{
		{Coarse: fim.Result{Items: fim.Itemset{{Attr: "a", Value: "x|b=y"}}}},
		{Coarse: fim.Result{Items: fim.Itemset{{Attr: "a", Value: "x"}, {Attr: "b", Value: "y"}}}},
	}
	causes, err := CounterfactualContext(context.Background(), s.All(), assocs, fim.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(causes) != 1 || causes[0].Key() != "a=x|b=y" || len(causes[0].Items) != 2 {
		t.Fatalf("causes %v, want the pair {x, y} alone", causes)
	}
	if one := (Cause{Items: assocs[0].Coarse.Items}).Key(); one == causes[0].Key() {
		t.Fatalf("the single condition and the pair share the key %q", one)
	}
}

// TestSketchTierCauseSet pins RCA's product output on the sketch tier
// against the exact tier: the same seeded rows, mined on a store where
// app_version tiers up and on one where it stays exact, give the same
// causes in the same rank order. One planted cause is a pair with the
// sketched attribute; the other is a triple with it, whose third item the
// version implies (v3 ships on hw_1 only). A sketch-tier triple count is
// the minimum of its subsets' counts, so it ties its tightest subset and
// loses the tie on size: a triple with a sketched attribute surfaces as
// that subset, and the implied item makes the exact tier agree, so both
// tiers report the pair {v3, w0}.
func TestSketchTierCauseSet(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	base := time.Unix(0, 0).UTC()
	rows := make([]driftlog.Entry, 20000)
	for i := range rows {
		v := r.Intn(3000)
		if r.Float64() < 0.6 {
			v = r.Intn(4) // four hot versions, 15% of rows each
		}
		attrs := map[string]string{
			"app_version":         fmt.Sprint("v", v),
			driftlog.AttrWeather:  fmt.Sprint("w", r.Intn(3)),
			driftlog.AttrLocation: fmt.Sprint("city_", r.Intn(6)),
			"hw":                  fmt.Sprint("hw_", r.Intn(3)),
		}
		if v == 3 {
			attrs["hw"] = "hw_1"
		}
		p := 0.03
		switch {
		case attrs["app_version"] == "v1" && attrs[driftlog.AttrLocation] == "city_2":
			p = 0.95
		case attrs["app_version"] == "v3" && attrs[driftlog.AttrWeather] == "w0" && attrs["hw"] == "hw_1":
			p = 0.8
		}
		rows[i] = driftlog.Entry{Time: base.Add(time.Duration(i) * 100 * time.Millisecond),
			Drift: r.Float64() < p, SampleID: -1, Attrs: attrs}
	}
	causes := func(threshold int) ([]string, *driftlog.Store) {
		s := driftlog.NewStoreWithSketch(driftlog.SketchConfig{Threshold: threshold})
		for lo := 0; lo < len(rows); lo += 256 {
			s.AppendBatch(rows[lo:min(lo+256, len(rows))])
		}
		got, err := AnalyzeContext(context.Background(), s.All(), DefaultConfig(), Full)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(got))
		for i, c := range got {
			keys[i] = c.Key()
		}
		return keys, s
	}
	sketched, s := causes(256)
	if got := s.SketchedAttrs(); len(got) != 1 || got[0] != "app_version" {
		t.Fatalf("sketched attrs %v, want [app_version]", got)
	}
	exact, _ := causes(1 << 30)
	if !slices.Equal(sketched, exact) {
		t.Fatalf("sketch-tier causes %q, exact-tier causes %q", sketched, exact)
	}
	want := []string{
		fim.NewItemset(driftlog.Cond{Attr: "app_version", Value: "v3"}, driftlog.Cond{Attr: driftlog.AttrWeather, Value: "w0"}).Key(),
		fim.NewItemset(driftlog.Cond{Attr: "app_version", Value: "v1"}, driftlog.Cond{Attr: driftlog.AttrLocation, Value: "city_2"}).Key(),
	}
	if !slices.Equal(exact, want) {
		t.Fatalf("exact-tier causes %q, want the two planted causes %q", exact, want)
	}
}
