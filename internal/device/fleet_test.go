package device

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"nazar/internal/adapt"
	"nazar/internal/driftlog"
	"nazar/internal/fim"
	"nazar/internal/nn"
	"nazar/internal/rca"
	"nazar/internal/tensor"
)

// weatherVersion is a by-cause version for weather=<w> carrying snap.
func weatherVersion(w string, snap *nn.BNSnapshot) adapt.BNVersion {
	return adapt.BNVersion{
		ID:       w + "-v1",
		Cause:    rca.Cause{Items: fim.NewItemset(driftlog.Cond{Attr: driftlog.AttrWeather, Value: w})},
		Snapshot: snap,
	}
}

// TestFleetConcurrentInferAndInstall: devices on goroutines of their
// own, each over its own view of one backbone, while another goroutine
// keeps installing clean and by-cause versions into every pool (run
// under -race). Weights are shared across the goroutines by design;
// nothing else is.
func TestFleetConcurrentInferAndInstall(t *testing.T) {
	_, world, base := newDevice(t, 0)
	snap := nn.CaptureBN(base)
	weathers := []string{"fog", "rain", "snow"}
	fleet := make([]*Device, 4)
	for i := range fleet {
		fleet[i] = New(Config{ID: fmt.Sprintf("dev%d", i), Rng: tensor.NewRand(70, uint64(i))}, base.View())
	}
	rng := tensor.NewRand(71, 1)
	xs := make([][]float64, 16)
	want := make([]int, len(xs))
	for i := range xs {
		xs[i] = world.Sample(i%8, rng)
		want[i], _ = tensor.ArgMax(base.LogitsOne(xs[i]))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the installer
		defer wg.Done()
		for round := 0; ; round++ {
			for _, d := range fleet {
				select {
				case <-stop:
					return
				default:
				}
				v := weatherVersion(weathers[round%len(weathers)], snap)
				if round%4 == 3 {
					v = adapt.BNVersion{ID: "clean", Snapshot: snap}
				}
				if err := d.Pool.Install(v, time.Unix(int64(round), 0)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var devs sync.WaitGroup
	for _, d := range fleet {
		devs.Add(1)
		go func() {
			defer devs.Done()
			for it := 0; it < 400; it++ {
				i := it % len(xs)
				// Every installed version carries the base's BN state, so
				// whichever one is selected predicts what the base does.
				inf, _, _ := d.Infer(time.Unix(int64(it), 0), xs[i], map[string]string{driftlog.AttrWeather: weathers[it%len(weathers)]})
				if inf.Predicted != want[i] {
					t.Errorf("%s input %d: predicted %d via %q, base predicts %d", d.ID, i, inf.Predicted, inf.VersionID, want[i])
					return
				}
			}
		}()
	}
	devs.Wait()
	close(stop)
	wg.Wait()
}

var benchSink Inference

// BenchmarkInferFleet is device.Infer with the working-set axis the
// composed benchmark exposed: a stream rotating over pools devices, each
// holding versions by-cause versions over one shared base, inputs cycling
// through the causes (and the clean model). One op is one inference;
// resident-B/pool is the live heap the fleet added per device once every
// version has served.
func BenchmarkInferFleet(b *testing.B) {
	const dim, classes = 64, 19
	base := nn.NewClassifier(nn.ArchResNet50, dim, classes, tensor.NewRand(0xF1, 1))
	snap := nn.CaptureBN(base)
	x := make([]float64, dim)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	for _, pools := range []int{1, 20} {
		for _, versions := range []int{0, 4} {
			b.Run(fmt.Sprintf("pools=%d/versions=%d", pools, versions), func(b *testing.B) {
				before := liveHeap()
				fleet := make([]*Device, pools)
				attrs := []map[string]string{{driftlog.AttrWeather: "clear"}}
				for v := 0; v < versions; v++ {
					attrs = append(attrs, map[string]string{driftlog.AttrWeather: fmt.Sprintf("w%d", v)})
				}
				for i := range fleet {
					fleet[i] = New(Config{ID: fmt.Sprintf("dev%d", i)}, base)
					for _, a := range attrs[1:] {
						if err := fleet[i].Pool.Install(weatherVersion(a[driftlog.AttrWeather], snap), time.Unix(1, 0)); err != nil {
							b.Fatal(err)
						}
					}
					for _, a := range attrs {
						fleet[i].Infer(time.Unix(2, 0), x, a)
					}
				}
				resident := float64(liveHeap()-before) / float64(pools)
				now := time.Unix(3, 0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink, _, _ = fleet[i%pools].Infer(now, x, attrs[(i/pools)%len(attrs)])
				}
				b.StopTimer()
				b.ReportMetric(resident, "resident-B/pool")
				runtime.KeepAlive(fleet)
			})
		}
	}
}

// liveHeap is the heap in use after a collection.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
