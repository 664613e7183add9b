package macrosim

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"nazar/internal/cloud"
	"nazar/internal/driftlog"
	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// TestHighCardScenarioValidate pins the HighCardSpec validation rules.
func TestHighCardScenarioValidate(t *testing.T) {
	base := func() *Scenario {
		sc := testScenario()
		sc.HighCard = []HighCardSpec{{Attr: "app_version", Cardinality: 1000, HotFraction: 0.5}}
		sc.applyDefaults()
		return sc
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid high-cardinality spec rejected: %v", err)
	}
	if got := base().HighCard[0].HotValues; got != 16 {
		t.Fatalf("HotValues default = %d, want 16", got)
	}
	cases := []struct {
		name  string
		mut   func(*Scenario)
		field string
	}{
		{"empty attr", func(sc *Scenario) { sc.HighCard[0].Attr = "" }, "attr"},
		{"builtin collision", func(sc *Scenario) { sc.HighCard[0].Attr = "weather" }, "attr"},
		{"duplicate attr", func(sc *Scenario) {
			sc.HighCard = append(sc.HighCard, HighCardSpec{Attr: "app_version", Cardinality: 10})
		}, "high_cardinality[1].attr"},
		{"cardinality too small", func(sc *Scenario) { sc.HighCard[0].Cardinality = 1 }, "cardinality"},
		{"cardinality too large", func(sc *Scenario) { sc.HighCard[0].Cardinality = maxHighCardValues + 1 }, "cardinality"},
		{"hot fraction", func(sc *Scenario) { sc.HighCard[0].HotFraction = 1.5 }, "hot_fraction"},
		{"hot values", func(sc *Scenario) { sc.HighCard[0].HotValues = -1 }, "hot_values"},
		{"too many specs", func(sc *Scenario) {
			for i := 0; i <= maxHighCard; i++ {
				sc.HighCard = append(sc.HighCard, HighCardSpec{Attr: "x", Cardinality: 10})
			}
		}, "high_cardinality"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := base()
			tc.mut(sc)
			err := sc.Validate()
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			se, ok := err.(*ScenarioError)
			if !ok {
				t.Fatalf("error type %T, want *ScenarioError", err)
			}
			if !strings.Contains(se.Field, tc.field) {
				t.Fatalf("error field %q, want substring %q", se.Field, tc.field)
			}
		})
	}
}

// TestHighCardValue pins the draw: deterministic, in-range, and with
// hot_fraction=1 confined to the hot set.
func TestHighCardValue(t *testing.T) {
	hc := HighCardSpec{Attr: "app_version", Cardinality: 5000, HotFraction: 1, HotValues: 8}
	seen := map[string]bool{}
	for dev := uint64(0); dev < 200; dev++ {
		v := hc.Value(7, dev, 1, 3, 0)
		if v != hc.Value(7, dev, 1, 3, 0) {
			t.Fatal("Value is not deterministic")
		}
		if !strings.HasPrefix(v, "app_version-") {
			t.Fatalf("value %q missing attr prefix", v)
		}
		seen[v] = true
	}
	if len(seen) > hc.HotValues {
		t.Fatalf("hot_fraction=1 produced %d distinct values, want <= %d", len(seen), hc.HotValues)
	}
	// With no hot set the long tail spreads: 200 draws over 5000 values
	// should rarely collide.
	hc.HotFraction, hc.HotValues = 0, 0
	seen = map[string]bool{}
	for dev := uint64(0); dev < 200; dev++ {
		seen[hc.Value(7, dev, 1, 3, 0)] = true
	}
	if len(seen) < 150 {
		t.Fatalf("uniform draw produced only %d distinct values over 200 draws", len(seen))
	}
}

// serviceSink bridges the engine's sampled entry stream straight into a
// cloud.Service, without the HTTP hop.
type serviceSink struct{ svc *cloud.Service }

func (s serviceSink) Report(e driftlog.Entry, sample []float64) error {
	var samples [][]float64
	if sample != nil {
		samples = [][]float64{sample}
	}
	return s.svc.IngestBatchContext(context.Background(), []driftlog.Entry{e}, samples)
}

// TestHighCardSketchEndToEnd runs the checked-in high-cardinality
// scenario (shrunk fleet) into a cloud.Service whose drift log has a
// low tier-up threshold, and checks the synthetic attributes actually
// drop their bitmaps while every count stays exact — the full
// nazar-sim → ingest → row-walk path.
func TestHighCardSketchEndToEnd(t *testing.T) {
	sc, err := LoadScenario("testdata/scenarios/high_cardinality.json")
	if err != nil {
		t.Fatal(err)
	}
	sc.Devices = 10000 // full 50k fleet is for nazar-sim; the path is identical

	run := func(workers, threshold int) (*cloud.Service, *Summary) {
		cfg := cloud.DefaultConfig()
		cfg.Sketch.Threshold = threshold
		svc := cloud.NewService(nn.NewClassifier(nn.ArchResNet18, 8, 2, tensor.NewRand(1, 2)), cfg)
		sum := runScenario(t, sc, WithSink(serviceSink{svc}), WithWorkers(workers))
		return svc, sum
	}
	svc, sum := run(1, 512)
	if sum.Totals.SinkReported == 0 {
		t.Fatal("sink saw no entries")
	}
	log := svc.Log()
	sketched := log.SketchedAttrs()
	for _, attr := range []string{"app_version", "firmware"} {
		if !slices.Contains(sketched, attr) {
			t.Fatalf("attr %q did not tier up (tiered: %v)", attr, sketched)
		}
	}

	// Counts on the tiered attributes are exact, both over all time and
	// over a sub-window.
	v := log.Window(time.Time{}, time.Time{})
	sub := log.Window(simEpoch, simEpoch.Add(20*time.Minute))
	for _, view := range []*driftlog.View{v, sub} {
		for _, cond := range []driftlog.Cond{
			{Attr: "app_version", Value: "app_version-0"},
			{Attr: "firmware", Value: "firmware-3"},
		} {
			got, err := view.Count([]driftlog.Cond{cond}, nil)
			if err != nil {
				t.Fatal(err)
			}
			from, to := view.Bounds()
			var exact driftlog.CountResult // the truth, from the rows themselves
			log.Each(func(_ int, e driftlog.Entry) {
				if ns := e.Time.UnixNano(); ns >= from && ns < to && e.Attrs[cond.Attr] == cond.Value {
					exact.Total++
					if e.Drift {
						exact.Drift++
					}
				}
			})
			if got != exact || exact.Total == 0 {
				t.Fatalf("cond %v: counted %+v, the rows hold %+v", cond, got, exact)
			}
		}
	}

	// Pool width changes wall-clock only: the delivered entry set, the
	// fleet summary, and the counts all agree between 1 and 8 workers.
	svc8, sum8 := run(8, 512)
	b1, err := sum.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	b8, err := sum8.MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b8) {
		t.Fatal("summaries differ across pool widths")
	}
	v8 := svc8.Log().Window(time.Time{}, time.Time{})
	for _, cond := range []driftlog.Cond{
		{Attr: "app_version", Value: "app_version-0"},
		{Attr: "firmware", Value: "firmware-3"},
	} {
		a, err := v.Count([]driftlog.Cond{cond}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := v8.Count([]driftlog.Cond{cond}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("cond %v: counts differ across widths: %+v vs %+v", cond, a, b)
		}
	}

	// The product output does not depend on the tier: diagnosing the
	// whole log finds the same causes, in the same order, with the same
	// metrics, when the synthetic attributes keep their bitmaps.
	exactSvc, _ := run(1, 1<<30)
	if got := exactSvc.Log().SketchedAttrs(); len(got) != 0 {
		t.Fatalf("untiered service tiered %v", got)
	}
	diagnose := func(svc *cloud.Service) []string {
		causes, err := svc.DiagnoseContext(context.Background(), time.Time{}, time.Time{}, simEpoch)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(causes))
		for i, c := range causes {
			keys[i] = fmt.Sprintf("%s %+v", c.Key(), c.Metrics)
		}
		return keys
	}
	tieredCauses, exactCauses := diagnose(svc), diagnose(exactSvc)
	if len(exactCauses) == 0 || !slices.Equal(tieredCauses, exactCauses) {
		t.Fatalf("tiered causes %q, untiered causes %q", tieredCauses, exactCauses)
	}
	t.Log(tieredCauses)
}
