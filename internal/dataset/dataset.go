// Package dataset assembles the two evaluation workloads of the paper:
//
//   - Cityscapes-analogue: an 8-way traffic-object classification set
//     derived the way Ekya preprocesses cityscapes (14 % train / 6 % val /
//     80 % stream), with images tagged by European city and submitted for
//     inference at equal intervals over January 1 – April 21, 2020.
//   - Animals-analogue: an N-way species-classification app deployed at
//     seven continental locations, each with a configurable device count,
//     Poisson arrivals (mean two images per device per day), and a
//     per-location Zipf class skew.
//
// Images are clean here; weather-driven corruption is applied downstream
// (by the pipeline, from the weather generator) or directly by
// microbenchmarks.
package dataset

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"nazar/internal/imagesim"
	"nazar/internal/tensor"
	"nazar/internal/weather"
)

// Split is a supervised data split.
type Split struct {
	X      *tensor.Matrix
	Labels []int
}

// Len returns the number of examples in the split.
func (s Split) Len() int { return len(s.Labels) }

// StreamItem is one image awaiting inference on a device.
type StreamItem struct {
	X        []float64 // clean features; corruptions applied downstream
	Class    int
	Time     time.Time
	Location string
	DeviceID string
}

// Dataset is a complete workload: a world, supervised splits, and a
// time-ordered inference stream.
type Dataset struct {
	Name      string
	World     *imagesim.World
	Train     Split
	Val       Split
	Stream    []StreamItem
	Locations []string
}

// CityscapesClasses are the traffic-object categories of the
// Ekya-preprocessed cityscapes classification task.
var CityscapesClasses = []string{
	"car", "person", "bicycle", "truck", "bus", "motorcycle", "rider", "traffic-sign",
}

// CityscapesConfig parameterizes the cityscapes-analogue build.
type CityscapesConfig struct {
	// Total is the overall image count across all splits (the paper's
	// full set is 27,604; defaults scale it down for speed).
	Total int
	// Devices is the number of vehicles per city.
	Devices int
	Seed    uint64
}

// NewCityscapes builds the cityscapes-analogue dataset.
func NewCityscapes(cfg CityscapesConfig) *Dataset {
	if cfg.Total <= 0 {
		cfg.Total = 6000
	}
	if cfg.Devices <= 0 {
		cfg.Devices = 2
	}
	classes := len(CityscapesClasses)
	world := imagesim.NewWorld(imagesim.DefaultConfig(classes, cfg.Seed))
	rng := tensor.NewRand(cfg.Seed, 0xC17E5)

	nTrain := cfg.Total * 14 / 100
	nVal := cfg.Total * 6 / 100
	nStream := cfg.Total - nTrain - nVal

	ds := &Dataset{
		Name:      "cityscapes",
		World:     world,
		Locations: weather.CityscapesLocations,
	}
	ds.Train = sampleSplit(world, nTrain, rng)
	ds.Val = sampleSplit(world, nVal, rng)

	// Streamed images arrive at equal intervals across the window,
	// spread round-robin over cities and vehicles.
	window := weather.End.Sub(weather.Start)
	ds.Stream = make([]StreamItem, 0, nStream)
	for i := 0; i < nStream; i++ {
		c := rng.IntN(classes)
		loc := ds.Locations[i%len(ds.Locations)]
		dev := fmt.Sprintf("vehicle_%s_%d", loc, (i/len(ds.Locations))%cfg.Devices)
		frac := float64(i) / float64(nStream)
		ts := weather.Start.Add(time.Duration(frac * float64(window)))
		ds.Stream = append(ds.Stream, StreamItem{
			X:        world.Sample(c, rng),
			Class:    c,
			Time:     ts,
			Location: loc,
			DeviceID: dev,
		})
	}
	sortStream(ds.Stream)
	return ds
}

// AnimalsConfig parameterizes the animals-analogue build.
type AnimalsConfig struct {
	// Classes is the species count (201 in the paper; defaults scale
	// down for speed).
	Classes       int
	TrainPerClass int
	ValPerClass   int
	// DevicesPerLocation defaults to the paper's 16.
	DevicesPerLocation int
	// ArrivalMeanPerDay is the Poisson mean of images per device per
	// day (paper default 2).
	ArrivalMeanPerDay float64
	// Alpha is the Zipf class-skew exponent (paper default 0 =
	// uniform; 1–2 for the skew experiments).
	Alpha float64
	// DayLimit, if positive, truncates the stream to the first N days.
	DayLimit int
	Seed     uint64
}

// DefaultAnimals returns a laptop-scale configuration.
func DefaultAnimals(seed uint64) AnimalsConfig {
	return AnimalsConfig{
		Classes:            40,
		TrainPerClass:      40,
		ValPerClass:        8,
		DevicesPerLocation: 16,
		ArrivalMeanPerDay:  2,
		Alpha:              0,
		Seed:               seed,
	}
}

// NewAnimals builds the animals-analogue dataset.
func NewAnimals(cfg AnimalsConfig) *Dataset {
	if cfg.Classes <= 1 {
		cfg.Classes = 40
	}
	if cfg.TrainPerClass <= 0 {
		cfg.TrainPerClass = 40
	}
	if cfg.ValPerClass <= 0 {
		cfg.ValPerClass = 8
	}
	if cfg.DevicesPerLocation <= 0 {
		cfg.DevicesPerLocation = 16
	}
	if cfg.ArrivalMeanPerDay <= 0 {
		cfg.ArrivalMeanPerDay = 2
	}
	world := imagesim.NewWorld(imagesim.DefaultConfig(cfg.Classes, cfg.Seed))
	rng := tensor.NewRand(cfg.Seed, 0xA111A)

	ds := &Dataset{
		Name:      "animals",
		World:     world,
		Locations: weather.AnimalsLocations,
	}
	ds.Train = samplePerClass(world, cfg.TrainPerClass, rng)
	ds.Val = samplePerClass(world, cfg.ValPerClass, rng)

	days := weather.Days()
	if cfg.DayLimit > 0 && cfg.DayLimit < days {
		days = cfg.DayLimit
	}
	for _, loc := range ds.Locations {
		dist := locationClassDist(cfg.Classes, cfg.Alpha, cfg.Seed, loc)
		for dev := 0; dev < cfg.DevicesPerLocation; dev++ {
			devID := fmt.Sprintf("android_%s_%d", loc, dev)
			for d := 0; d < days; d++ {
				n := poisson(cfg.ArrivalMeanPerDay, rng)
				for k := 0; k < n; k++ {
					c := sampleDist(dist, rng)
					ts := weather.Day(d).Add(time.Duration(rng.Int64N(int64(24 * time.Hour))))
					ds.Stream = append(ds.Stream, StreamItem{
						X:        world.Sample(c, rng),
						Class:    c,
						Time:     ts,
						Location: loc,
						DeviceID: devID,
					})
				}
			}
		}
	}
	sortStream(ds.Stream)
	return ds
}

// sampleSplit draws n examples with uniform class labels.
func sampleSplit(world *imagesim.World, n int, rng *rand.Rand) Split {
	x := tensor.New(n, world.Dim())
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.IntN(world.Classes())
		labels[i] = c
		copy(x.Row(i), world.Sample(c, rng))
	}
	return Split{X: x, Labels: labels}
}

// samplePerClass draws perClass examples of every class.
func samplePerClass(world *imagesim.World, perClass int, rng *rand.Rand) Split {
	n := perClass * world.Classes()
	x := tensor.New(n, world.Dim())
	labels := make([]int, n)
	i := 0
	for c := 0; c < world.Classes(); c++ {
		for k := 0; k < perClass; k++ {
			labels[i] = c
			copy(x.Row(i), world.Sample(c, rng))
			i++
		}
	}
	return Split{X: x, Labels: labels}
}

// locationClassDist builds the per-location class distribution: a
// location-specific permutation of classes with Zipf(alpha) rank
// probabilities (alpha 0 = uniform).
func locationClassDist(classes int, alpha float64, seed uint64, location string) []float64 {
	perm := permFor(classes, seed, location)
	probs := make([]float64, classes)
	var z float64
	for r := 0; r < classes; r++ {
		w := 1.0
		if alpha > 0 {
			w = math.Pow(float64(r+1), -alpha)
		}
		probs[perm[r]] = w
		z += w
	}
	for i := range probs {
		probs[i] /= z
	}
	return probs
}

// permFor returns a deterministic location-specific class permutation.
func permFor(classes int, seed uint64, location string) []int {
	h := uint64(1469598103934665603)
	for _, b := range []byte(location) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	rng := tensor.NewRand(seed^h, 0x9E37)
	perm := make([]int, classes)
	for i := range perm {
		perm[i] = i
	}
	rng.Shuffle(classes, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// sampleDist draws an index from a discrete distribution.
func sampleDist(probs []float64, rng *rand.Rand) int {
	u := rng.Float64()
	var acc float64
	for i, p := range probs {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(probs) - 1
}

// poisson draws from Poisson(mean) via Knuth's method (fine for small
// means like the paper's 2/day).
func poisson(mean float64, rng *rand.Rand) int {
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func sortStream(s []StreamItem) {
	sort.SliceStable(s, func(i, j int) bool { return s[i].Time.Before(s[j].Time) })
}

// WindowSlices splits the stream into n contiguous equal-duration time
// windows over the evaluation calendar (the paper divides the workload
// into 8 by default). Items outside the calendar fall into the nearest
// window.
func (d *Dataset) WindowSlices(n int) [][]StreamItem {
	out := make([][]StreamItem, n)
	total := weather.End.AddDate(0, 0, 1).Sub(weather.Start)
	for _, item := range d.Stream {
		idx := int(float64(item.Time.Sub(weather.Start)) / float64(total) * float64(n))
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		out[idx] = append(out[idx], item)
	}
	return out
}
