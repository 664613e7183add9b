package adapt

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/tensor"
)

// rig trains one base model on a small world; shared across tests.
type rig struct {
	world  *imagesim.World
	base   *nn.Network
	trainX *tensor.Matrix
	trainY []int
	valX   *tensor.Matrix
	valY   []int
}

var (
	rigOnce sync.Once
	shared  *rig
)

func getRig(t *testing.T) *rig {
	t.Helper()
	rigOnce.Do(func() {
		const classes = 15
		world := imagesim.NewWorld(imagesim.DefaultConfig(classes, 123))
		rng := tensor.NewRand(123, 5)
		per := 50
		trainX := tensor.New(per*classes, world.Dim())
		trainY := make([]int, per*classes)
		i := 0
		for c := 0; c < classes; c++ {
			for k := 0; k < per; k++ {
				trainY[i] = c
				copy(trainX.Row(i), world.Sample(c, rng))
				i++
			}
		}
		valX := tensor.New(15*classes, world.Dim())
		valY := make([]int, 15*classes)
		for i := range valY {
			c := i % classes
			valY[i] = c
			copy(valX.Row(i), world.Sample(c, rng))
		}
		base := nn.NewClassifier(nn.ArchResNet50, world.Dim(), classes, rng)
		nn.Fit(base, trainX, trainY, nn.TrainConfig{Epochs: 25, BatchSize: 32, Rng: rng})
		shared = &rig{world: world, base: base, trainX: trainX, trainY: trainY, valX: valX, valY: valY}
	})
	return shared
}

func TestTENTRecoversAffineDrift(t *testing.T) {
	r := getRig(t)
	rng := tensor.NewRand(9, 9)
	foggyAdapt := r.world.CorruptBatch(r.trainX, imagesim.Fog, imagesim.DefaultSeverity, rng)
	foggyTest := r.world.CorruptBatch(r.valX, imagesim.Fog, imagesim.DefaultSeverity, rng)

	before := r.base.Accuracy(foggyTest, r.valY)
	adapted, err := AdaptContext(context.Background(), r.base, foggyAdapt, Config{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	after := adapted.Accuracy(foggyTest, r.valY)
	if after < before+0.05 {
		t.Fatalf("TENT should recover >= 5 points on fog: %v -> %v", before, after)
	}
	// Base must be untouched.
	if got := r.base.Accuracy(foggyTest, r.valY); got != before {
		t.Fatal("Adapt mutated the base model")
	}
}

func TestAdaptedModelPoorOnOtherCauses(t *testing.T) {
	// §3.4: a model adapted to one cause performs poorly on other
	// causes and on clean data — the motivation for by-cause routing.
	r := getRig(t)
	rng := tensor.NewRand(10, 10)
	foggyAdapt := r.world.CorruptBatch(r.trainX, imagesim.Fog, imagesim.DefaultSeverity, rng)
	adapted, err := AdaptContext(context.Background(), r.base, foggyAdapt, Config{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	foggyTest := r.world.CorruptBatch(r.valX, imagesim.Fog, imagesim.DefaultSeverity, rng)
	ownAcc := adapted.Accuracy(foggyTest, r.valY)
	cleanAcc := adapted.Accuracy(r.valX, r.valY)
	baseCleanAcc := r.base.Accuracy(r.valX, r.valY)
	if cleanAcc >= baseCleanAcc {
		t.Fatalf("fog-adapted model should lose clean accuracy: %v vs base %v", cleanAcc, baseCleanAcc)
	}
	if ownAcc <= cleanAcc {
		t.Fatalf("fog-adapted model should do better on fog (%v) than clean (%v)", ownAcc, cleanAcc)
	}
}

func TestMEMOAdapts(t *testing.T) {
	r := getRig(t)
	rng := tensor.NewRand(11, 11)
	contrAdapt := r.world.CorruptBatch(r.trainX, imagesim.Contrast, imagesim.DefaultSeverity, rng)
	contrTest := r.world.CorruptBatch(r.valX, imagesim.Contrast, imagesim.DefaultSeverity, rng)
	before := r.base.Accuracy(contrTest, r.valY)
	adapted, err := AdaptContext(context.Background(), r.base, contrAdapt, Config{
		Method:             MEMO,
		Augment:            r.world.Augment,
		Epochs:             1,
		MaxBatchesPerEpoch: 2,
		Rng:                rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := adapted.Accuracy(contrTest, r.valY)
	if after < before-0.05 {
		t.Fatalf("MEMO should not collapse: %v -> %v", before, after)
	}
}

func TestMEMORequiresAugment(t *testing.T) {
	r := getRig(t)
	if _, err := AdaptContext(context.Background(), r.base, r.valX, Config{Method: MEMO}); err == nil {
		t.Fatal("MEMO without augment must error")
	}
}

func TestAdaptRejectsEmpty(t *testing.T) {
	r := getRig(t)
	if _, err := AdaptContext(context.Background(), r.base, nil, Config{}); err == nil {
		t.Fatal("nil samples must error")
	}
	if _, err := AdaptContext(context.Background(), r.base, tensor.New(0, r.world.Dim()), Config{}); err == nil {
		t.Fatal("empty samples must error")
	}
	// A pool of the wrong width (samples are uploaded input) is an error,
	// not a kernel panic.
	if _, err := AdaptContext(context.Background(), r.base, tensor.New(32, r.world.Dim()+1), Config{}); err == nil {
		t.Fatal("samples of the wrong width must error")
	}
}

func TestAdaptUnknownMethod(t *testing.T) {
	r := getRig(t)
	if _, err := AdaptContext(context.Background(), r.base, r.valX, Config{Method: "bogus"}); err == nil {
		t.Fatal("unknown method must error")
	}
}

func causeFor(corr imagesim.Corruption) rca.Cause {
	return rca.Cause{
		Items:   fim.NewItemset(driftlog.Cond{Attr: driftlog.AttrWeather, Value: string(corr)}),
		Metrics: fim.Metrics{RiskRatio: 2},
	}
}

func TestByCauseProducesVersions(t *testing.T) {
	r := getRig(t)
	rng := tensor.NewRand(12, 12)
	causes := []rca.Cause{causeFor(imagesim.Fog), causeFor(imagesim.Snow)}
	samples := func(c rca.Cause) *tensor.Matrix {
		corr := imagesim.Corruption(c.Items[0].Value)
		return r.world.CorruptBatch(r.trainX, corr, imagesim.DefaultSeverity, rng)
	}
	now := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	versions, err := ByCauseContext(context.Background(), r.base, causes, samples, 2, Config{Rng: rng, Epochs: 1}, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 2 {
		t.Fatalf("got %d versions", len(versions))
	}
	for i, v := range versions {
		if v.Cause.Key() != causes[i].Key() {
			t.Fatal("cause mismatch")
		}
		if v.IsClean() {
			t.Fatal("cause versions are not clean")
		}
		if !v.CreatedAt.Equal(now) {
			t.Fatal("timestamp mismatch")
		}
		if v.SizeBytes() <= 0 {
			t.Fatal("empty snapshot")
		}
		if !strings.Contains(v.ID, "weather=") {
			t.Fatalf("version id %q should embed the cause", v.ID)
		}
	}
	// Versions must differ from each other (different causes adapt
	// differently).
	a, b := versions[0].Snapshot.Layers[0], versions[1].Snapshot.Layers[0]
	same := true
	for i := range a.Gamma {
		if a.Gamma[i] != b.Gamma[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two causes produced identical BN versions")
	}
}

func TestByCauseSkipsSparseCauses(t *testing.T) {
	r := getRig(t)
	causes := []rca.Cause{causeFor(imagesim.Fog)}
	samples := func(rca.Cause) *tensor.Matrix { return tensor.New(1, r.world.Dim()) }
	versions, err := ByCauseContext(context.Background(), r.base, causes, samples, 10, DefaultConfig(), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 0 {
		t.Fatal("sparse cause should be skipped")
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	r := getRig(t)
	rng := tensor.NewRand(13, 13)
	foggy := r.world.CorruptBatch(r.trainX, imagesim.Fog, imagesim.DefaultSeverity, rng)
	adapted, err := AdaptContext(context.Background(), r.base, foggy, Config{Rng: rng, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := BNVersion{ID: "test", Snapshot: nn.CaptureBN(adapted), CreatedAt: time.Now()}
	mat, err := Materialize(r.base, v)
	if err != nil {
		t.Fatal(err)
	}
	x := r.valX
	a, b := adapted.Logits(x), mat.Logits(x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("materialized model diverges from adapted model")
		}
	}
	// What a version must compute is a deep copy of the base carrying its
	// snapshot; what Materialize builds holds the base's weights in place.
	ref := materializeRef(t, r.base, v)
	c := ref.Logits(x)
	for i := range c.Data {
		if math.Float64bits(c.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("logit %d: materialized %v, Clone+ApplyTo %v", i, b.Data[i], c.Data[i])
		}
	}
	for i := 0; i < min(x.Rows, 16); i++ {
		one, want := mat.LogitsOne(x.Row(i)), ref.LogitsOne(x.Row(i))
		for j := range want {
			if math.Float64bits(one[j]) != math.Float64bits(want[j]) {
				t.Fatalf("row %d logit %d: materialized %v, Clone+ApplyTo %v", i, j, one[j], want[j])
			}
		}
	}
	if hashBN(mat) != hashBN(ref) {
		t.Fatal("materialized BN state differs from Clone+ApplyTo")
	}
	for i, l := range mat.LayersList {
		if _, ok := l.(*nn.Dense); !ok {
			continue
		}
		for j, p := range l.Params() {
			if p.W != r.base.LayersList[i].Params()[j].W {
				t.Fatalf("layer %d param %d: Materialize copied a Dense parameter", i, j)
			}
		}
	}
}

// materializeRef is the deep-copy install Materialize replaced: the
// reference for what a version computes.
func materializeRef(t *testing.T, base *nn.Network, v BNVersion) *nn.Network {
	t.Helper()
	net := base.Clone()
	if err := v.Snapshot.ApplyTo(net); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestMaterializeWrongTopology(t *testing.T) {
	r := getRig(t)
	other := nn.NewClassifier(nn.ArchResNet18, r.world.Dim(), 3, tensor.NewRand(1, 1))
	v := BNVersion{ID: "bad", Snapshot: nn.CaptureBN(other)}
	if _, err := Materialize(r.base, v); err == nil {
		t.Fatal("topology mismatch must error")
	}
}

func TestAdaptAllOnMixedWorseThanByCause(t *testing.T) {
	// The Table 4 mechanism: adapting one model on a mixture of
	// divergent drift sources underfits relative to per-cause models.
	r := getRig(t)
	rng := tensor.NewRand(14, 14)
	mix := []imagesim.Corruption{imagesim.Fog, imagesim.GaussianNoise, imagesim.Contrast, imagesim.Snow}

	// Pool: equal parts of each corruption.
	rows := r.trainX.Rows / len(mix) * len(mix)
	pool := tensor.New(rows, r.world.Dim())
	for i := 0; i < rows; i++ {
		corr := mix[i%len(mix)]
		copy(pool.Row(i), r.world.Corrupt(r.trainX.Row(i), corr, imagesim.DefaultSeverity, rng))
	}
	allModel, err := AdaptContext(context.Background(), r.base, pool, Config{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}

	var byCauseAcc, adaptAllAcc float64
	for _, corr := range mix {
		adaptX := r.world.CorruptBatch(r.trainX, corr, imagesim.DefaultSeverity, rng)
		testX := r.world.CorruptBatch(r.valX, corr, imagesim.DefaultSeverity, rng)
		m, err := AdaptContext(context.Background(), r.base, adaptX, Config{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		byCauseAcc += m.Accuracy(testX, r.valY) / float64(len(mix))
		adaptAllAcc += allModel.Accuracy(testX, r.valY) / float64(len(mix))
	}
	if byCauseAcc <= adaptAllAcc {
		t.Fatalf("by-cause %v should beat adapt-all %v on mixed drift", byCauseAcc, adaptAllAcc)
	}
}

func TestEntropyFilterStillAdapts(t *testing.T) {
	// EATA-style filtering must not break recovery (it skips only the
	// noisiest gradient rows) and must change the result vs unfiltered.
	r := getRig(t)
	rng := tensor.NewRand(15, 15)
	adaptX := r.world.CorruptBatch(r.trainX, imagesim.Fog, imagesim.DefaultSeverity, rng)
	testX := r.world.CorruptBatch(r.valX, imagesim.Fog, imagesim.DefaultSeverity, rng)
	before := r.base.Accuracy(testX, r.valY)

	filtered, err := AdaptContext(context.Background(), r.base, adaptX, Config{Rng: tensor.NewRand(1, 1), EntropyFilter: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	after := filtered.Accuracy(testX, r.valY)
	if after < before+0.05 {
		t.Fatalf("filtered TENT should still recover: %v -> %v", before, after)
	}

	plain, err := AdaptContext(context.Background(), r.base, adaptX, Config{Rng: tensor.NewRand(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	fg, pg := filtered.BatchNorms()[0].Gamma(), plain.BatchNorms()[0].Gamma()
	for i := range fg {
		if fg[i] != pg[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("filter had no effect on the adaptation trajectory")
	}
}

func TestByCauseDeterministicUnderParallelism(t *testing.T) {
	// Parallel by-cause adaptation must be reproducible: per-cause RNGs
	// are derived from the config seed and cause key, not from
	// scheduling order.
	r := getRig(t)
	causes := []rca.Cause{
		causeFor(imagesim.Fog), causeFor(imagesim.Snow),
		causeFor(imagesim.Rain), causeFor(imagesim.Contrast),
	}
	sampleRng := tensor.NewRand(77, 1)
	pools := map[string]*tensor.Matrix{}
	for _, c := range causes {
		corr := imagesim.Corruption(c.Items[0].Value)
		pools[c.Key()] = r.world.CorruptBatch(r.trainX, corr, imagesim.DefaultSeverity, sampleRng)
	}
	source := func(c rca.Cause) *tensor.Matrix { return pools[c.Key()] }
	now := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

	run := func() []BNVersion {
		vs, err := ByCauseContext(context.Background(), r.base, causes, source, 2,
			Config{Rng: tensor.NewRand(5, 5), Epochs: 1, MinSteps: 8}, now)
		if err != nil {
			t.Fatal(err)
		}
		return vs
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != len(causes) {
		t.Fatalf("version counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("order differs: %s vs %s", a[i].ID, b[i].ID)
		}
		ga, gb := a[i].Snapshot.Layers[0].Gamma, b[i].Snapshot.Layers[0].Gamma
		for j := range ga {
			if ga[j] != gb[j] {
				t.Fatalf("version %s not bit-identical across runs", a[i].ID)
			}
		}
	}
}
