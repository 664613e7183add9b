package cloud

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/driftlog"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/tensor"
	"nazar/internal/weather"
)

// ingestOne ingests a single row (+ optional sample) as a one-row batch.
func ingestOne(svc *Service, e driftlog.Entry, sample []float64) error {
	var samples [][]float64
	if sample != nil {
		samples = [][]float64{sample}
	}
	return svc.IngestBatchContext(context.Background(), []driftlog.Entry{e}, samples)
}

// TestSampleStore: the read adapter gathers vectors from the drift log in
// the order of the IDs asked for, skipping IDs no row holds a vector for.
func TestSampleStore(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 2, 2, tensor.NewRand(1, 1))
	svc := NewService(base, DefaultConfig())
	if err := svc.IngestBatchContext(context.Background(), []driftlog.Entry{
		{Time: weather.Day(1), Attrs: map[string]string{}},
		{Time: weather.Day(1), Attrs: map[string]string{}},
		{Time: weather.Day(1), Attrs: map[string]string{}},
	}, [][]float64{{1, 2}, nil, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	if n := svc.Samples().Len(); n != 2 {
		t.Fatalf("len %d", n)
	}
	m := svc.Samples().Gather([]int64{1, 0, 99, -1})
	if m.Rows != 2 || m.At(0, 0) != 3 || m.At(1, 0) != 1 {
		t.Fatalf("gather %v", m)
	}
	if svc.Samples().Gather(nil) != nil {
		t.Fatal("empty gather should be nil")
	}
}

func TestIngestLinksSamples(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 4, tensor.NewRand(1, 1))
	svc := NewService(base, DefaultConfig())
	e := driftlog.Entry{Time: time.Now(), Drift: true,
		Attrs: map[string]string{driftlog.AttrWeather: "fog"}}
	ingestOne(svc, e, []float64{1, 2, 3})
	ingestOne(svc, driftlog.Entry{Time: time.Now(), Drift: false, SampleID: 77,
		Attrs: map[string]string{driftlog.AttrWeather: "clear-day"}}, nil)

	if svc.Samples().Len() != 1 {
		t.Fatalf("samples %d", svc.Samples().Len())
	}
	if got := svc.Log().Entry(0).SampleID; got != 0 {
		t.Fatalf("entry 0 sample id %d", got)
	}
	if got := svc.Log().Entry(1).SampleID; got != -1 {
		t.Fatalf("entry 1 sample id %d (must be normalized to -1)", got)
	}
}

// buildWorkload streams fog-drifted and clean inputs into the service
// from two locations, as if devices had reported them.
func buildWorkload(t *testing.T, svc *Service, world *imagesim.World, net *nn.Network, n int) {
	t.Helper()
	rng := tensor.NewRand(500, 1)
	day := weather.Day(10)
	for i := 0; i < n; i++ {
		c := i % world.Classes()
		x := world.Sample(c, rng)
		cond := "clear-day"
		if i%2 == 0 {
			x = world.Corrupt(x, imagesim.Fog, imagesim.DefaultSeverity, rng)
			cond = "fog"
		}
		logits := net.LogitsOne(x)
		msp := tensor.Softmax(logits)
		_, maxp := tensor.ArgMax(msp)
		entry := driftlog.Entry{
			Time:  day.Add(time.Duration(i) * time.Minute),
			Drift: maxp < 0.9,
			Attrs: map[string]string{
				driftlog.AttrWeather:  cond,
				driftlog.AttrLocation: []string{"Hamburg", "Zurich", "Bremen"}[i%3],
				driftlog.AttrDevice:   "dev",
			},
		}
		ingestOne(svc, entry, x)
	}
}

func trainBase(world *imagesim.World, seed uint64) *nn.Network {
	rng := tensor.NewRand(seed, 2)
	n := 400
	x := tensor.New(n, world.Dim())
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % world.Classes()
		copy(x.Row(i), world.Sample(y[i], rng))
	}
	net := nn.NewClassifier(nn.ArchResNet34, world.Dim(), world.Classes(), rng)
	nn.Fit(net, x, y, nn.TrainConfig{Epochs: 15, BatchSize: 32, Rng: rng})
	return net
}

func TestRunWindowEndToEnd(t *testing.T) {
	world := imagesim.NewWorld(imagesim.DefaultConfig(10, 321))
	base := trainBase(world, 321)
	cfg := DefaultConfig()
	cfg.MinSamplesPerCause = 8
	cfg.AdaptCfg.Epochs = 1
	svc := NewService(base, cfg)
	buildWorkload(t, svc, world, base, 400)

	res, err := svc.RunWindowContext(context.Background(), weather.Day(10), weather.Day(11), weather.Day(11))
	if err != nil {
		t.Fatal(err)
	}
	if res.LogRows != 400 {
		t.Fatalf("log rows %d", res.LogRows)
	}
	// Fog must be identified as a cause.
	foundFog := false
	for _, c := range res.Causes {
		for _, cond := range c.Items {
			if cond.Attr == driftlog.AttrWeather && cond.Value == "fog" {
				foundFog = true
			}
		}
	}
	if !foundFog {
		t.Fatalf("fog not identified; causes %v", res.Causes)
	}
	// At least one fog version and the clean refresh version.
	var fogVersion, cleanVersion *adapt.BNVersion
	for i := range res.Versions {
		v := &res.Versions[i]
		if v.IsClean() {
			cleanVersion = v
		} else if v.Cause.Matches(map[string]string{driftlog.AttrWeather: "fog"}) {
			fogVersion = v
		}
	}
	if fogVersion == nil {
		t.Fatalf("no fog version; versions %v", len(res.Versions))
	}
	if cleanVersion == nil {
		t.Fatal("no clean refresh version")
	}
	if res.RCADuration <= 0 || res.AdaptDuration <= 0 {
		t.Fatal("durations not measured")
	}

	// The fog version must improve fog accuracy over the original base.
	rng := tensor.NewRand(999, 1)
	testN := 160
	fogX := tensor.New(testN, world.Dim())
	labels := make([]int, testN)
	for i := 0; i < testN; i++ {
		labels[i] = i % world.Classes()
		copy(fogX.Row(i), world.Corrupt(world.Sample(labels[i], rng), imagesim.Fog, imagesim.DefaultSeverity, rng))
	}
	fogNet, err := adapt.Materialize(base, *fogVersion)
	if err != nil {
		t.Fatal(err)
	}
	if before, after := base.Accuracy(fogX, labels), fogNet.Accuracy(fogX, labels); after <= before {
		t.Fatalf("fog version did not improve: %v -> %v", before, after)
	}
}

func TestRunWindowEmptyLog(t *testing.T) {
	world := imagesim.NewWorld(imagesim.DefaultConfig(4, 7))
	base := nn.NewClassifier(nn.ArchResNet18, world.Dim(), 4, tensor.NewRand(7, 1))
	svc := NewService(base, DefaultConfig())
	res, err := svc.RunWindowContext(context.Background(), time.Time{}, time.Time{}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Causes) != 0 || len(res.Versions) != 0 {
		t.Fatal("empty log must produce nothing")
	}
}

func TestCleanAdaptationMovesBase(t *testing.T) {
	world := imagesim.NewWorld(imagesim.DefaultConfig(6, 31))
	base := trainBase(world, 31)
	cfg := DefaultConfig()
	cfg.MinSamplesPerCause = 4
	cfg.AdaptCfg.Epochs = 1
	svc := NewService(base, cfg)

	// Only clean traffic (no causes), sampled.
	rng := tensor.NewRand(32, 1)
	day := weather.Day(3)
	for i := 0; i < 64; i++ {
		x := world.Sample(i%6, rng)
		ingestOne(svc, driftlog.Entry{
			Time: day.Add(time.Duration(i) * time.Minute), Drift: false,
			Attrs: map[string]string{driftlog.AttrWeather: "clear-day", driftlog.AttrLocation: "Hamburg"},
		}, x)
	}
	res, err := svc.RunWindowContext(context.Background(), day, day.AddDate(0, 0, 1), day.AddDate(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Causes) != 0 {
		t.Fatalf("no causes expected, got %v", res.Causes)
	}
	if len(res.Versions) != 1 || !res.Versions[0].IsClean() {
		t.Fatalf("expected exactly the clean refresh, got %d versions", len(res.Versions))
	}
	if svc.Base() == base {
		t.Fatal("clean adaptation should replace the service base")
	}
	_ = rca.Full // keep import used if assertions change
}

func TestRCAModeRespected(t *testing.T) {
	world := imagesim.NewWorld(imagesim.DefaultConfig(10, 321))
	base := trainBase(world, 321)
	counts := map[rca.Mode]int{}
	for _, mode := range []rca.Mode{rca.FIMOnly, rca.Full} {
		cfg := DefaultConfig()
		cfg.RCAMode = mode
		cfg.AdaptClean = false
		cfg.AdaptCfg.Epochs = 1
		svc := NewService(base, cfg)
		buildWorkload(t, svc, world, base, 300)
		res, err := svc.RunWindowContext(context.Background(), weather.Day(10), weather.Day(11), weather.Day(11))
		if err != nil {
			t.Fatal(err)
		}
		counts[mode] = len(res.Causes)
	}
	if counts[rca.FIMOnly] < counts[rca.Full] {
		t.Fatalf("FIM-only causes %d < full %d", counts[rca.FIMOnly], counts[rca.Full])
	}
}

// TestBoundedSampleStore: LogRetention is the one bound on the vectors
// held — compaction takes each vector out with its row, and the IDs of
// the rows that stay keep resolving.
func TestBoundedSampleStore(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 1, 2, tensor.NewRand(1, 1))
	cfg := DefaultConfig()
	cfg.LogRetention = 48 * time.Hour
	svc := NewService(base, cfg)
	for d := 0; d < 5; d++ {
		if err := ingestOne(svc, driftlog.Entry{Time: weather.Day(d), Attrs: map[string]string{}}, []float64{float64(d)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.RunWindowContext(context.Background(), time.Time{}, time.Time{}, weather.Day(5)); err != nil {
		t.Fatal(err)
	}
	// Days 3 and 4 survive a 48h retention at now = day 5.
	if n := svc.Samples().Len(); n != 2 {
		t.Fatalf("len %d", n)
	}
	if m := svc.Samples().Gather([]int64{0, 1, 2}); m != nil {
		t.Fatal("compacted rows' samples should be gone")
	}
	m := svc.Samples().Gather([]int64{3, 4})
	if m == nil || m.Rows != 2 || m.At(0, 0) != 3 || m.At(1, 0) != 4 {
		t.Fatalf("gather %+v", m)
	}
}

func TestLogRetentionCompacts(t *testing.T) {
	world := imagesim.NewWorld(imagesim.DefaultConfig(6, 31))
	base := nn.NewClassifier(nn.ArchResNet18, world.Dim(), 6, tensor.NewRand(31, 1))
	cfg := DefaultConfig()
	cfg.LogRetention = 48 * time.Hour
	svc := NewService(base, cfg)
	for d := 0; d < 10; d++ {
		ingestOne(svc, driftlog.Entry{
			Time: weather.Day(d), Drift: false,
			Attrs: map[string]string{driftlog.AttrWeather: "clear-day"},
		}, nil)
	}
	if _, err := svc.RunWindowContext(context.Background(), time.Time{}, time.Time{}, weather.Day(10)); err != nil {
		t.Fatal(err)
	}
	// Only days 8 and 9 survive a 48h retention at now = day 10.
	if got := svc.Log().Len(); got != 2 {
		t.Fatalf("retained %d rows, want 2", got)
	}
}

// snapshotsBitEqual reports whether two BN snapshots hold the same bits
// (the wire encoding carries every float64 exactly).
func snapshotsBitEqual(t *testing.T, a, b *nn.BNSnapshot) bool {
	t.Helper()
	ea, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ea, eb)
}

// ingestThreeWay streams n sampled rows starting at start: a third fog
// and a third snow (both drifting), a third clear — two causes and a
// clean pool.
func ingestThreeWay(t *testing.T, svc *Service, start time.Time, n int) {
	t.Helper()
	rng := tensor.NewRand(41, 1)
	for i := 0; i < n; i++ {
		cond := []string{"fog", "snow", "clear-day"}[i%3]
		x := make([]float64, 8)
		for j := range x {
			x[j] = rng.NormFloat64() + float64(i%3)
		}
		err := ingestOne(svc, driftlog.Entry{
			Time:  start.Add(time.Duration(i) * time.Second),
			Drift: cond != "clear-day",
			Attrs: map[string]string{driftlog.AttrWeather: cond, driftlog.AttrLocation: []string{"Hamburg", "Zurich"}[i%2], driftlog.AttrDevice: "dev"},
		}, x)
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWindowOverlapMatchesSerialComposition: the window's one fan-out
// (by-cause runs and the clean re-adaptation in flight together) yields
// the version IDs, order and BN bits of running ByCauseContext and then
// AdaptContext on a shared Rng, at pool widths 1 and 8.
func TestWindowOverlapMatchesSerialComposition(t *testing.T) {
	defer tensor.SetMaxWorkers(0)
	for _, width := range []int{1, 8} {
		tensor.SetMaxWorkers(width)
		base := nn.NewClassifier(nn.ArchResNet18, 8, 3, tensor.NewRand(40, 1))
		cfg := DefaultConfig()
		cfg.AdaptCfg.Rng = tensor.NewRand(7, 7)
		svc := NewService(base, cfg)
		day := weather.Day(5)
		ingestThreeWay(t, svc, day, 300)
		now := day.AddDate(0, 0, 1)

		res, err := svc.RunWindowContext(context.Background(), day, now, now)
		if err != nil {
			t.Fatal(err)
		}

		v := svc.Log().Window(day, now)
		serialCfg := cfg.AdaptCfg
		serialCfg.Rng = tensor.NewRand(7, 7)
		want, err := adapt.ByCauseContext(context.Background(), base, res.Causes, causeSamples(v), cfg.MinSamplesPerCause, serialCfg, now)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) < 2 {
			t.Fatalf("width %d: %d by-cause versions from causes %v, want at least 2", width, len(want), res.Causes)
		}
		clean, err := adapt.AdaptContext(context.Background(), base, stack(cleanSamples(v, res.Causes)), serialCfg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, adapt.BNVersion{ID: fmt.Sprintf("clean@%d#1", now.Unix()), Snapshot: nn.CaptureBN(clean)})

		if len(res.Versions) != len(want) {
			t.Fatalf("width %d: %d versions, serial composition has %d", width, len(res.Versions), len(want))
		}
		for i, w := range want {
			got := res.Versions[i]
			if got.ID != w.ID {
				t.Fatalf("width %d: version %d is %s, serial composition has %s", width, i, got.ID, w.ID)
			}
			if !snapshotsBitEqual(t, got.Snapshot, w.Snapshot) {
				t.Fatalf("width %d: version %s differs from the serial composition", width, got.ID)
			}
		}
		if !snapshotsBitEqual(t, nn.CaptureBN(svc.Base()), want[len(want)-1].Snapshot) {
			t.Fatalf("width %d: the service base is not the clean run's model", width)
		}
	}
}

// TestRetentionKeepsWindowCleanVersion: compacting rows outside the
// window does not change a window whose rows are all still retained — a
// service under LogRetention and an unbounded one produce the same clean
// version.
func TestRetentionKeepsWindowCleanVersion(t *testing.T) {
	const n = 240
	base := nn.NewClassifier(nn.ArchResNet18, 8, 3, tensor.NewRand(42, 1))
	cfg := DefaultConfig()
	retained := cfg
	retained.LogRetention = 48 * time.Hour
	bounded, unbounded := NewService(base, retained), NewService(base, cfg)
	old, day := weather.Day(1), weather.Day(5)
	now := day.AddDate(0, 0, 1)
	for _, svc := range []*Service{bounded, unbounded} {
		ingestThreeWay(t, svc, old, 9*n)
		ingestThreeWay(t, svc, day, n)
	}

	var cleans []*nn.BNSnapshot
	for _, svc := range []*Service{bounded, unbounded} {
		res, err := svc.RunWindowContext(context.Background(), day, now, now)
		if err != nil {
			t.Fatal(err)
		}
		last := res.Versions[len(res.Versions)-1]
		if !last.IsClean() {
			t.Fatalf("window produced no clean version (%d versions)", len(res.Versions))
		}
		cleans = append(cleans, last.Snapshot)
	}
	if got := bounded.Samples().Len(); got != n {
		t.Fatalf("retention kept %d samples, want the window's %d", got, n)
	}
	if !snapshotsBitEqual(t, cleans[0], cleans[1]) {
		t.Fatal("clean version under retention differs from the unbounded one with every window sample retained")
	}
}
