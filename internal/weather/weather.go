// Package weather generates deterministic historical weather for the
// evaluation window the paper uses (January 1 – April 21, 2020).
//
// The paper drives its weather-based drifts from scraped historical
// records (Kaggle daily weather, Weather Underground). What the system
// actually consumes is just a per-location, per-day condition with
// realistic properties: seasonality (snow fades after winter), spatial
// variation (cold vs warm locations), temporal persistence (weather
// systems last a few days), and an overall drift-day rate around the
// paper's 29–36 %. A seeded Markov generator provides exactly that while
// keeping every experiment reproducible.
package weather

import (
	"fmt"
	"hash/fnv"
	"time"

	"nazar/internal/tensor"
)

// Condition is a daily weather condition as recorded in the drift log.
type Condition string

// Conditions. ClearDay matches the paper's drift-log example value.
const (
	ClearDay Condition = "clear-day"
	Rain     Condition = "rain"
	Snow     Condition = "snow"
	Fog      Condition = "fog"
)

// Evaluation window (the paper emulates both datasets over this range).
var (
	// Start is January 1, 2020 (UTC).
	Start = time.Date(2020, time.January, 1, 0, 0, 0, 0, time.UTC)
	// End is April 21, 2020 (UTC), exclusive of later days.
	End = time.Date(2020, time.April, 21, 0, 0, 0, 0, time.UTC)
)

// Days returns the number of days in [Start, End].
func Days() int { return int(End.Sub(Start).Hours()/24) + 1 }

// Day returns the date i days after Start.
func Day(i int) time.Time { return Start.AddDate(0, 0, i) }

// DayIndex returns the day offset of t from Start.
func DayIndex(t time.Time) int {
	return int(t.Sub(Start).Hours() / 24)
}

// Climate is a location's weather prior at the height of winter.
type Climate struct {
	Rain, Snow, Fog float64
	// Persistence is the probability that today repeats yesterday.
	Persistence float64
}

// Generator produces deterministic per-location weather series.
type Generator struct {
	seed   uint64
	series map[string][]Condition
}

// NewGenerator returns a generator; equal seeds give equal weather.
func NewGenerator(seed uint64) *Generator {
	return &Generator{seed: seed, series: map[string][]Condition{}}
}

// climateFor derives a stable climate from the location name: coldness,
// wetness and fogginess vary per location but stay in a band that keeps
// overall drift-day rates near the paper's 29–36 %.
func (g *Generator) climateFor(location string) Climate {
	rng := tensor.NewRand(hash(g.seed, "climate/"+location), 0xC11A)
	cold := rng.Float64() // 0 = tropical, 1 = arctic
	return Climate{
		Rain:        0.10 + 0.10*rng.Float64(),
		Snow:        0.18 * cold,
		Fog:         0.04 + 0.06*rng.Float64(),
		Persistence: 0.35 + 0.15*rng.Float64(),
	}
}

// seasonalPriors returns condition probabilities for day index d given
// the winter climate: snow decays to zero by spring while rain picks up.
func seasonalPriors(c Climate, d int) (rain, snow, fog float64) {
	frac := float64(d) / float64(Days()-1) // 0 = Jan 1, 1 = Apr 21
	winter := 1 - frac
	snow = c.Snow * winter * winter
	rain = c.Rain * (0.8 + 0.6*frac)
	fog = c.Fog
	return rain, snow, fog
}

// SeriesFor returns (and caches) the full daily series for a location.
func (g *Generator) SeriesFor(location string) []Condition {
	if s, ok := g.series[location]; ok {
		return s
	}
	climate := g.climateFor(location)
	rng := tensor.NewRand(hash(g.seed, "series/"+location), 0x5E1E)
	n := Days()
	s := make([]Condition, n)
	prev := ClearDay
	for d := 0; d < n; d++ {
		if d > 0 && rng.Float64() < climate.Persistence {
			s[d] = prev
		} else {
			rain, snow, fog := seasonalPriors(climate, d)
			u := rng.Float64()
			switch {
			case u < rain:
				s[d] = Rain
			case u < rain+snow:
				s[d] = Snow
			case u < rain+snow+fog:
				s[d] = Fog
			default:
				s[d] = ClearDay
			}
		}
		prev = s[d]
	}
	g.series[location] = s
	return s
}

// ConditionAt returns the condition for a location on a date inside the
// evaluation window.
func (g *Generator) ConditionAt(location string, t time.Time) (Condition, error) {
	d := DayIndex(t)
	if d < 0 || d >= Days() {
		return "", fmt.Errorf("weather: %s outside evaluation window [%s, %s]",
			t.Format("2006-01-02"), Start.Format("2006-01-02"), End.Format("2006-01-02"))
	}
	return g.SeriesFor(location)[d], nil
}

func hash(seed uint64, label string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return h.Sum64()
}

// CityscapesLocations is a representative subset of the 50 European
// cities in the cityscapes dataset.
var CityscapesLocations = []string{
	"Hamburg", "Zurich", "Stuttgart", "Frankfurt", "Cologne",
	"Dusseldorf", "Bremen", "Aachen", "Strasbourg", "Krefeld",
}

// AnimalsLocations are the seven continental deployment sites of the
// animal-identifier app. The paper enumerates six by name ("7 locations:
// New York, Tibet, Beijing, New South Wales, United Kingdom and Quebec");
// we add Sao Paulo as the seventh continent's site.
var AnimalsLocations = []string{
	"New York", "Tibet", "Beijing", "New South Wales",
	"United Kingdom", "Quebec", "Sao Paulo",
}
