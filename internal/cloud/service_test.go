package cloud

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/driftlog"
	"nazar/internal/fim"
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
	ingestOne(svc, e, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	ingestOne(svc, driftlog.Entry{Time: time.Now(), Drift: false, SampleID: 77,
		Attrs: map[string]string{driftlog.AttrWeather: "clear-day"}}, nil)

	if svc.Samples().Len() != 1 {
		t.Fatalf("samples %d", svc.Samples().Len())
	}
	rows := logRows(svc.Log())
	if got := rows[0].SampleID; got != 0 {
		t.Fatalf("entry 0 sample id %d", got)
	}
	if got := rows[1].SampleID; got != -1 {
		t.Fatalf("entry 1 sample id %d (must be normalized to -1)", got)
	}
}

// TestIngestRefusesSampleWidth: a sample the model cannot take is
// refused at ingest, as the batch's fault (not ErrDurability, so the HTTP
// edge answers 400), and leaves nothing behind. Accepted, a vector 3 or
// 12 wide either fails every window whose {snow} pool it sits first in
// (adapt checks the stacked width, which the first vector sets) or,
// sitting last, is zero-padded or truncated into a "successful" version.
func TestIngestRefusesSampleWidth(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 4, tensor.NewRand(1, 1))
	cfg := DefaultConfig()
	cfg.AdaptCfg.Epochs = 1
	day := weather.Day(3)
	rng := tensor.NewRand(2, 1)
	entries := make([]driftlog.Entry, 400)
	samples := make([][]float64, len(entries))
	for i := range entries {
		cond := "clear-day"
		if i%2 == 0 {
			cond = "snow"
		}
		entries[i] = driftlog.Entry{Time: day.Add(time.Duration(i+1) * time.Minute), Drift: cond == "snow",
			Attrs: map[string]string{driftlog.AttrWeather: cond}}
		samples[i] = make([]float64, 8)
		for j := range samples[i] {
			samples[i][j] = rng.NormFloat64()
		}
	}
	for _, width := range []int{3, 12} {
		for _, at := range []string{"first", "last"} {
			svc := NewService(base, cfg)
			ingestBad := func() {
				bad := driftlog.Entry{Time: day, Drift: true, Attrs: map[string]string{driftlog.AttrWeather: "snow"}}
				if err := ingestOne(svc, bad, make([]float64, width)); err == nil || errors.Is(err, ErrDurability) {
					t.Errorf("width %d %s: ingest returned %v, want a refusal that is not ErrDurability", width, at, err)
				}
			}
			if at == "first" {
				ingestBad()
			}
			if err := svc.IngestBatchContext(context.Background(), entries, samples); err != nil {
				t.Fatal(err)
			}
			if at == "last" {
				ingestBad()
			}
			if n := svc.Log().Len(); n != len(entries) {
				t.Errorf("width %d %s: log holds %d rows, want the %d good ones", width, at, n, len(entries))
			}
			res, err := svc.RunWindowContext(context.Background(), day, day.AddDate(0, 0, 1), day.AddDate(0, 0, 1))
			if err != nil {
				t.Errorf("width %d %s: window: %v", width, at, err)
				continue
			}
			snow := 0
			for _, v := range res.Versions {
				if v.Cause.Matches(map[string]string{driftlog.AttrWeather: "snow"}) {
					snow++
				}
			}
			if snow == 0 {
				t.Fatalf("width %d %s: no {snow} version among %d", width, at, len(res.Versions))
			}
		}
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
		want, err := adapt.ByCauseContext(context.Background(), base, res.Causes, causeSamples(v, 0), cfg.MinSamplesPerCause, serialCfg, now)
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

// TestCauseSamplesFloor: a cause matching fewer rows than the floor gets
// no pool and costs no sample walk — the call allocates nothing, where
// the walk for the same cause does — while a cause at the floor gets the
// walk's pool unchanged. Manual adaptation over such causes deploys the
// versions the unfloored source yields, bit for bit.
func TestCauseSamplesFloor(t *testing.T) {
	base := nn.NewClassifier(nn.ArchResNet18, 8, 3, tensor.NewRand(40, 1))
	cfg := DefaultConfig()
	cfg.MinSamplesPerCause = 60
	cfg.AdaptCfg.Rng = tensor.NewRand(7, 7)
	svc := NewService(base, cfg)
	day := weather.Day(5)
	ingestThreeWay(t, svc, day, 300)
	now := day.AddDate(0, 0, 1)
	v := svc.Log().Window(day, now)

	snow := rca.Cause{Items: fim.NewItemset(driftlog.Cond{Attr: driftlog.AttrWeather, Value: "snow"})}
	fogHamburg := rca.Cause{Items: fim.NewItemset(
		driftlog.Cond{Attr: driftlog.AttrWeather, Value: "fog"},
		driftlog.Cond{Attr: driftlog.AttrLocation, Value: "Hamburg"})}
	unknown := rca.Cause{Items: fim.NewItemset(driftlog.Cond{Attr: "firmware", Value: "1"})}
	n, err := v.Count(fogHamburg.Items, nil)
	if err != nil || n.Total != 50 {
		t.Fatalf("fog∧Hamburg matches %d rows (%v), want 50", n.Total, err)
	}

	below, at := causeSamples(v, n.Total+1), causeSamples(v, n.Total)
	if x := below(fogHamburg); x != nil {
		t.Fatalf("below the floor: pool of %d rows, want nil", x.Rows)
	}
	if a := testing.AllocsPerRun(20, func() { below(fogHamburg) }); a != 0 {
		t.Fatalf("below the floor: %v allocations per call, want 0 (no sample walk)", a)
	}
	if a := testing.AllocsPerRun(20, func() { at(fogHamburg) }); a == 0 {
		t.Fatal("the sample walk allocates nothing: the zero above proves no skip")
	}
	_, xs, _ := v.Samples(fogHamburg.Items)
	if got, want := at(fogHamburg), stack(xs); got == nil || !slices.EqualFunc(got.Data, want.Data, sameBits) {
		t.Fatal("at the floor: pool differs from the sample walk's")
	}
	if below(unknown) != nil || causeSamples(v, 0)(unknown) != nil {
		t.Fatal("a cause naming an attribute the view lacks got a pool")
	}

	causes := []rca.Cause{snow, fogHamburg, unknown}
	got, err := svc.AdaptCausesContext(context.Background(), causes, day, now, now)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := cfg.AdaptCfg
	refCfg.Rng = tensor.NewRand(7, 7)
	want, err := adapt.ByCauseContext(context.Background(), base, causes, causeSamples(v, 0), cfg.MinSamplesPerCause, refCfg, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("%d versions, unfloored source %d: want only snow's", len(got), len(want))
	}
	if got[0].ID != want[0].ID || !snapshotsBitEqual(t, got[0].Snapshot, want[0].Snapshot) {
		t.Fatalf("version %s differs from the unfloored source's %s", got[0].ID, want[0].ID)
	}
}

// sameBits reports whether a and b hold the same bits.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// logRows returns every row of s in ingest order.
func logRows(s *driftlog.Store) []driftlog.Entry {
	rows := make([]driftlog.Entry, 0, s.Len())
	s.Each(func(_ int, e driftlog.Entry) { rows = append(rows, e) })
	return rows
}
