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

func TestSampleStore(t *testing.T) {
	s := NewSampleStore()
	id1 := s.Add([]float64{1, 2})
	id2 := s.Add([]float64{3, 4})
	if id1 != 0 || id2 != 1 || s.Len() != 2 {
		t.Fatalf("ids %d %d len %d", id1, id2, s.Len())
	}
	m := s.Gather([]int64{id2, id1, 99, -1})
	if m.Rows != 2 || m.At(0, 0) != 3 || m.At(1, 0) != 1 {
		t.Fatalf("gather %v", m)
	}
	if s.Gather(nil) != nil {
		t.Fatal("empty gather should be nil")
	}
}

// TestSampleStoreStartAt: a store started above a previous process's IDs
// assigns from there, resolves nothing below, and evicts exactly as a
// store started at zero does.
func TestSampleStoreStartAt(t *testing.T) {
	const first, capacity, n = 1000003, 8, 40
	s, zero := NewBoundedSampleStore(capacity), NewBoundedSampleStore(capacity)
	s.startAt(first)
	for i := 0; i < n; i++ {
		if id := s.Add([]float64{float64(i)}); id != int64(first+i) {
			t.Fatalf("sample %d got id %d, want %d", i, id, first+i)
		}
		zero.Add([]float64{float64(i)})
	}
	if s.Gather([]int64{0, 5, first - 1}) != nil {
		t.Fatal("ids below the start resolved to samples")
	}
	if s.Gather([]int64{first, first + n - capacity - 1}) != nil {
		t.Fatal("evicted ids resolved to samples")
	}
	m := s.Gather([]int64{first + n - capacity, first + n - 1})
	if m == nil || m.Rows != 2 || m.At(0, 0) != n-capacity || m.At(1, 0) != n-1 {
		t.Fatalf("retained gather %v", m)
	}
	st, want := s.Stats(), zero.Stats()
	if st.Added != want.Added || st.Retained != want.Retained || st.Evicted != want.Evicted {
		t.Fatalf("stats %+v, want those of a store started at zero: %+v", st, want)
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

func TestServiceLogPersistence(t *testing.T) {
	world := imagesim.NewWorld(imagesim.DefaultConfig(6, 31))
	base := nn.NewClassifier(nn.ArchResNet18, world.Dim(), 6, tensor.NewRand(31, 1))
	svc := NewService(base, DefaultConfig())
	rng := tensor.NewRand(32, 1)
	for i := 0; i < 20; i++ {
		ingestOne(svc, driftlog.Entry{
			Time: weather.Day(1).Add(time.Duration(i) * time.Minute), Drift: i%2 == 0,
			Attrs: map[string]string{driftlog.AttrWeather: "rain"},
		}, world.Sample(i%6, rng))
	}
	path := t.TempDir() + "/drift.log"
	if err := svc.SaveLog(path); err != nil {
		t.Fatal(err)
	}
	fresh := NewService(base, DefaultConfig())
	if err := fresh.LoadLog(path); err != nil {
		t.Fatal(err)
	}
	if fresh.Log().Len() != 20 {
		t.Fatalf("restored %d rows", fresh.Log().Len())
	}
}

func TestBoundedSampleStore(t *testing.T) {
	s := NewBoundedSampleStore(3)
	var ids []int64
	for i := 0; i < 5; i++ {
		ids = append(ids, s.Add([]float64{float64(i)}))
	}
	// IDs are stable and monotonically increasing despite eviction.
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("id %d = %d", i, id)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("len %d", s.Len())
	}
	// Evicted IDs gather nothing; recent ones survive.
	if m := s.Gather(ids[:2]); m != nil {
		t.Fatal("evicted samples should be gone")
	}
	m := s.Gather(ids[2:])
	if m == nil || m.Rows != 3 || m.At(0, 0) != 2 || m.At(2, 0) != 4 {
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
		source := func(c rca.Cause) *tensor.Matrix {
			ids, err := v.SampleIDs(c.Items)
			if err != nil {
				t.Error(err)
			}
			return svc.Samples().Gather(ids)
		}
		serialCfg := cfg.AdaptCfg
		serialCfg.Rng = tensor.NewRand(7, 7)
		want, err := adapt.ByCauseContext(context.Background(), base, res.Causes, source, cfg.MinSamplesPerCause, serialCfg, now)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) < 2 {
			t.Fatalf("width %d: %d by-cause versions from causes %v, want at least 2", width, len(want), res.Causes)
		}
		clean, err := adapt.AdaptContext(context.Background(), base, svc.cleanSamples(res.Causes, day, now), serialCfg)
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

// metaCount is the number of sample-metadata entries the service holds.
func metaCount(svc *Service) int {
	n := 0
	for i := range svc.meta {
		svc.meta[i].mu.Lock()
		n += len(svc.meta[i].metas)
		svc.meta[i].mu.Unlock()
	}
	return n
}

// TestSampleMetaBoundedByCap: under WithSampleCap sample metadata is
// trimmed with the samples it describes, and trimming does not change a
// window whose samples are all still retained.
func TestSampleMetaBoundedByCap(t *testing.T) {
	const capN = 240
	base := nn.NewClassifier(nn.ArchResNet18, 8, 3, tensor.NewRand(42, 1))
	cfg := DefaultConfig()
	capped, unbounded := NewService(base, cfg, WithSampleCap(capN)), NewService(base, cfg)
	old, day := weather.Day(1), weather.Day(5)
	now := day.AddDate(0, 0, 1)
	for _, svc := range []*Service{capped, unbounded} {
		ingestThreeWay(t, svc, old, 9*capN)
		ingestThreeWay(t, svc, day, capN)
	}
	if got := metaCount(capped); got > capN+sampleShards {
		t.Fatalf("capped service holds %d metadata entries after %d sampled ingests, want at most %d", got, 10*capN, capN+sampleShards)
	}
	if got := metaCount(unbounded); got != 10*capN {
		t.Fatalf("unbounded service holds %d metadata entries, want %d", got, 10*capN)
	}

	var cleans []*nn.BNSnapshot
	for _, svc := range []*Service{capped, unbounded} {
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
	if !snapshotsBitEqual(t, cleans[0], cleans[1]) {
		t.Fatal("clean version under a sample cap differs from the uncapped one with every window sample retained")
	}
}
