package weather

import (
	"testing"
	"time"
)

func TestCalendar(t *testing.T) {
	if got := Days(); got != 112 {
		t.Fatalf("Days() = %d, want 112 (Jan 1 – Apr 21 2020 inclusive)", got)
	}
	if !Day(0).Equal(Start) {
		t.Fatal("Day(0) != Start")
	}
	if !Day(Days() - 1).Equal(End) {
		t.Fatalf("Day(last) = %v, want %v", Day(Days()-1), End)
	}
	if DayIndex(Day(17)) != 17 {
		t.Fatal("DayIndex roundtrip failed")
	}
}

func TestSeriesDeterministic(t *testing.T) {
	a := NewGenerator(5).SeriesFor("Hamburg")
	b := NewGenerator(5).SeriesFor("Hamburg")
	if len(a) != Days() {
		t.Fatalf("series length %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical series")
		}
	}
	c := NewGenerator(6).SeriesFor("Hamburg")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestLocationsDiffer(t *testing.T) {
	g := NewGenerator(1)
	a := g.SeriesFor("Hamburg")
	b := g.SeriesFor("Beijing")
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff < 10 {
		t.Fatalf("locations nearly identical: %d differing days", diff)
	}
}

func TestConditionAtBounds(t *testing.T) {
	g := NewGenerator(2)
	if _, err := g.ConditionAt("Zurich", Start); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ConditionAt("Zurich", End); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ConditionAt("Zurich", End.AddDate(0, 0, 1)); err == nil {
		t.Fatal("expected out-of-window error")
	}
	if _, err := g.ConditionAt("Zurich", Start.AddDate(0, 0, -1)); err == nil {
		t.Fatal("expected out-of-window error")
	}
}

func TestDriftDayFractionInPaperRange(t *testing.T) {
	g := NewGenerator(1)
	city := driftDayFraction(g, CityscapesLocations)
	animals := driftDayFraction(g, AnimalsLocations)
	// Paper: 29% (cityscapes) and 36% (animals). Require the generator
	// to land in a plausible band around those.
	for name, f := range map[string]float64{"cityscapes": city, "animals": animals} {
		if f < 0.15 || f > 0.50 {
			t.Fatalf("%s drift-day fraction %v outside [0.15, 0.50]", name, f)
		}
	}
}

func TestSnowSeasonality(t *testing.T) {
	g := NewGenerator(3)
	// Snow must be far more common in January than in April across a
	// cold-climate ensemble.
	janSnow, aprSnow := 0, 0
	for _, loc := range append(CityscapesLocations, AnimalsLocations...) {
		s := g.SeriesFor(loc)
		for d := 0; d < 31; d++ {
			if s[d] == Snow {
				janSnow++
			}
		}
		for d := Days() - 21; d < Days(); d++ {
			if s[d] == Snow {
				aprSnow++
			}
		}
	}
	if janSnow == 0 {
		t.Fatal("no snow anywhere in January")
	}
	if aprSnow*3 > janSnow {
		t.Fatalf("snow not seasonal: Jan=%d Apr(21d)=%d", janSnow, aprSnow)
	}
}

func TestPersistence(t *testing.T) {
	// Consecutive-day agreement should exceed the i.i.d. baseline.
	g := NewGenerator(4)
	agree, total := 0, 0
	for _, loc := range CityscapesLocations {
		s := g.SeriesFor(loc)
		for d := 1; d < len(s); d++ {
			total++
			if s[d] == s[d-1] {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.55 {
		t.Fatalf("persistence too low: %v", frac)
	}
}

func TestConditionCounts(t *testing.T) {
	g := NewGenerator(5)
	counts := conditionCounts(g, "Quebec")
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != Days() {
		t.Fatalf("counts sum to %d, want %d", total, Days())
	}
	if counts[ClearDay] == 0 {
		t.Fatal("no clear days at all")
	}
}

func TestIsDrift(t *testing.T) {
	if ClearDay.isDrift() {
		t.Fatal("clear-day is not drift")
	}
	for _, c := range []Condition{Rain, Snow, Fog} {
		if !c.isDrift() {
			t.Fatalf("%s should be drift", c)
		}
	}
}

func TestAnimalsLocationsCount(t *testing.T) {
	if len(AnimalsLocations) != 7 {
		t.Fatalf("paper uses 7 animal locations, have %d", len(AnimalsLocations))
	}
}

func TestSeriesCached(t *testing.T) {
	g := NewGenerator(6)
	a := g.SeriesFor("Tibet")
	b := g.SeriesFor("Tibet")
	if &a[0] != &b[0] {
		t.Fatal("series should be cached")
	}
}

func TestDayArithmetic(t *testing.T) {
	want := time.Date(2020, time.February, 1, 0, 0, 0, 0, time.UTC)
	if !Day(31).Equal(want) {
		t.Fatalf("Day(31) = %v, want %v", Day(31), want)
	}
}

// driftDayFraction returns the fraction of location-days in the window
// with a drift condition, across the given locations.
func driftDayFraction(g *Generator, locations []string) float64 {
	if len(locations) == 0 {
		return 0
	}
	total, drift := 0, 0
	for _, loc := range locations {
		for _, c := range g.SeriesFor(loc) {
			total++
			if c.isDrift() {
				drift++
			}
		}
	}
	return float64(drift) / float64(total)
}

// conditionCounts tallies each condition over the window for a location.
func conditionCounts(g *Generator, location string) map[Condition]int {
	counts := map[Condition]int{}
	for _, c := range g.SeriesFor(location) {
		counts[c]++
	}
	return counts
}

// isDrift reports whether the condition applies a corruption to images.
func (c Condition) isDrift() bool { return c != ClearDay }
