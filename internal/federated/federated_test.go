package federated

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/imagesim"
	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/tensor"
)

type rig struct {
	world *imagesim.World
	base  *nn.Network
	valX  *tensor.Matrix
	valY  []int
}

var (
	rigOnce sync.Once
	shared  *rig
)

func getRig(t *testing.T) *rig {
	t.Helper()
	rigOnce.Do(func() {
		const classes = 12
		world := imagesim.NewWorld(imagesim.DefaultConfig(classes, 600))
		rng := tensor.NewRand(600, 1)
		base := nn.NewClassifier(nn.ArchResNet50, world.Dim(), classes, rng)
		n := classes * 50
		x := tensor.New(n, world.Dim())
		y := make([]int, n)
		for i := 0; i < n; i++ {
			y[i] = i % classes
			copy(x.Row(i), world.Sample(y[i], rng))
		}
		nn.Fit(base, x, y, nn.TrainConfig{Epochs: 20, BatchSize: 32, Rng: rng})
		valX := tensor.New(classes*15, world.Dim())
		valY := make([]int, classes*15)
		for i := range valY {
			valY[i] = i % classes
			copy(valX.Row(i), world.Sample(valY[i], rng))
		}
		shared = &rig{world: world, base: base, valX: valX, valY: valY}
	})
	return shared
}

func fogCause() rca.Cause {
	return rca.Cause{Items: fim.NewItemset(driftlog.Cond{Attr: driftlog.AttrWeather, Value: "fog"})}
}

// deviceUpdate adapts locally on one device's fog-corrupted buffer.
func deviceUpdate(t *testing.T, r *rig, devID string, samples int, seed uint64) ClientUpdate {
	t.Helper()
	rng := tensor.NewRand(seed, 1)
	x := tensor.New(samples, r.world.Dim())
	for i := 0; i < samples; i++ {
		c := i % r.world.Classes()
		copy(x.Row(i), r.world.Corrupt(r.world.Sample(c, rng), imagesim.Fog, imagesim.DefaultSeverity, rng))
	}
	u, err := LocalAdapt(r.base, x, fogCause().Key(), devID, adapt.Config{Rng: rng, Epochs: 2, MinSteps: 20})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestLocalAdaptRejectsTinyBuffers(t *testing.T) {
	r := getRig(t)
	if _, err := LocalAdapt(r.base, nil, "k", "d", adapt.DefaultConfig()); err == nil {
		t.Fatal("nil buffer must error")
	}
	one := tensor.New(1, r.world.Dim())
	if _, err := LocalAdapt(r.base, one, "k", "d", adapt.DefaultConfig()); err == nil {
		t.Fatal("single sample must error")
	}
}

func TestFederatedAggregationRecoversDrift(t *testing.T) {
	// The future-work claim made concrete: aggregating per-device BN
	// adaptations recovers most of what centralized by-cause adaptation
	// achieves — without any image leaving a device.
	r := getRig(t)
	rng := tensor.NewRand(601, 1)

	var updates []ClientUpdate
	for d := 0; d < 5; d++ {
		updates = append(updates, deviceUpdate(t, r, "dev", 64, 700+uint64(d)))
	}
	snap, err := Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	fedModel := r.base.Clone()
	if err := snap.ApplyTo(fedModel); err != nil {
		t.Fatal(err)
	}

	// Test set.
	fogX := tensor.New(r.valX.Rows, r.world.Dim())
	for i := 0; i < fogX.Rows; i++ {
		copy(fogX.Row(i), r.world.Corrupt(r.valX.Row(i), imagesim.Fog, imagesim.DefaultSeverity, rng))
	}
	before := r.base.Accuracy(fogX, r.valY)
	fedAcc := fedModel.Accuracy(fogX, r.valY)
	if fedAcc <= before+0.05 {
		t.Fatalf("federated adaptation should recover fog: %v -> %v", before, fedAcc)
	}

	// Compare against centralized adaptation on the pooled data.
	pool := tensor.New(5*64, r.world.Dim())
	prng := tensor.NewRand(702, 1)
	for i := 0; i < pool.Rows; i++ {
		c := i % r.world.Classes()
		copy(pool.Row(i), r.world.Corrupt(r.world.Sample(c, prng), imagesim.Fog, imagesim.DefaultSeverity, prng))
	}
	central, err := adapt.AdaptContext(context.Background(), r.base, pool, adapt.Config{Rng: prng, Epochs: 2, MinSteps: 20})
	if err != nil {
		t.Fatal(err)
	}
	centralAcc := central.Accuracy(fogX, r.valY)
	if fedAcc < centralAcc-0.12 {
		t.Fatalf("federated %v too far below centralized %v", fedAcc, centralAcc)
	}
}

func TestAggregateValidation(t *testing.T) {
	r := getRig(t)
	if _, err := Aggregate(nil); err == nil {
		t.Fatal("empty aggregate must error")
	}
	u := deviceUpdate(t, r, "d1", 16, 800)
	bad := u
	bad.Samples = 0
	if _, err := Aggregate([]ClientUpdate{bad}); err == nil {
		t.Fatal("zero-sample update must error")
	}
	other := nn.NewClassifier(nn.ArchResNet18, r.world.Dim(), 3, tensor.NewRand(1, 1))
	mismatch := ClientUpdate{DeviceID: "d2", CauseKey: u.CauseKey, Snapshot: nn.CaptureBN(other), Samples: 4}
	if _, err := Aggregate([]ClientUpdate{u, mismatch}); err == nil {
		t.Fatal("layer-count mismatch must error")
	}
}

func TestAggregateWeighting(t *testing.T) {
	r := getRig(t)
	a := deviceUpdate(t, r, "a", 16, 801)
	b := deviceUpdate(t, r, "b", 16, 802)
	// Heavily weighting one update must pull the average toward it.
	a.Samples = 1000
	b.Samples = 1
	snap, err := Aggregate([]ClientUpdate{a, b})
	if err != nil {
		t.Fatal(err)
	}
	g := snap.Layers[0].Gamma[0]
	ga := a.Snapshot.Layers[0].Gamma[0]
	gb := b.Snapshot.Layers[0].Gamma[0]
	if ga == gb {
		t.Skip("degenerate: identical gammas")
	}
	distA := g - ga
	if distA < 0 {
		distA = -distA
	}
	distB := g - gb
	if distB < 0 {
		distB = -distB
	}
	if distA >= distB {
		t.Fatalf("weighted average should sit near the heavy update: |g-ga|=%v |g-gb|=%v", distA, distB)
	}
}

func TestCoordinatorRound(t *testing.T) {
	r := getRig(t)
	coord := NewCoordinator()
	cause := fogCause()
	now := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)

	coord.Submit(deviceUpdate(t, r, "d1", 16, 900))
	coord.Submit(deviceUpdate(t, r, "d2", 16, 901))
	if coord.Pending(cause.Key()) != 2 {
		t.Fatalf("pending %d", coord.Pending(cause.Key()))
	}

	// Not enough clients yet.
	versions, err := coord.Round([]rca.Cause{cause}, 3, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 0 {
		t.Fatal("round should wait for minClients")
	}
	coord.Submit(deviceUpdate(t, r, "d3", 16, 902))
	versions, err = coord.Round([]rca.Cause{cause}, 3, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 1 {
		t.Fatalf("got %d versions", len(versions))
	}
	v := versions[0]
	if v.Cause.Key() != cause.Key() || !strings.HasPrefix(v.ID, "fed:") {
		t.Fatalf("version %+v", v)
	}
	// Queue cleared after aggregation.
	if coord.Pending(cause.Key()) != 0 {
		t.Fatal("queue not cleared")
	}
	// The version installs into a model pool like any other.
	if _, err := adapt.Materialize(r.base, v); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorResubmitReplaces(t *testing.T) {
	r := getRig(t)
	coord := NewCoordinator()
	coord.Submit(deviceUpdate(t, r, "d1", 16, 903))
	coord.Submit(deviceUpdate(t, r, "d1", 32, 904))
	if coord.Pending(fogCause().Key()) != 1 {
		t.Fatal("resubmission should replace, not append")
	}
}

func TestCoordinatorIgnoresUnknownCauses(t *testing.T) {
	r := getRig(t)
	coord := NewCoordinator()
	u := deviceUpdate(t, r, "d1", 16, 905)
	u.CauseKey = "weather=hail"
	coord.Submit(u)
	versions, err := coord.Round([]rca.Cause{fogCause()}, 1, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 0 {
		t.Fatal("unknown cause must stay queued")
	}
	if coord.Pending("weather=hail") != 1 {
		t.Fatal("unknown cause should remain pending")
	}
}
