package adapt

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// goldenBN holds, per objective and pool size, the SHA-256 of the BN
// state (every layer's γ, β, running mean, running variance as
// Float64bits) AdaptContext produced at the commit before the step
// stopped computing frozen-weight and input gradients, started reusing
// the frozen first layer's output, and began overlapping runs. Any
// rewrite of the adaptation step must keep reproducing them: the hashes
// are what "bit-identical BN snapshots" means. Regenerate only for a
// deliberate numerics change (the failure message prints the new value).
var goldenBN = map[string]string{
	"tent/13":          "ae626cd4363c1bc4656f89dd5efb77440dda592ffe8b5fc3c9fb9c935be9f321",
	"tent/64":          "cc02bd064d1dbbd91fb18ae49436433d78aefec63c3c3e20deb930a97b239064",
	"tent/200":         "91e6f9e3e999ec2c275a63cfd484778181e0a687a2fb27006e82c09170d669bb",
	"tent/1000":        "5c6b8bc258c5ee653cace8202c7714869359c9bafcd789f4fdbe4905a0cb5727",
	"tent-filter/13":   "ae626cd4363c1bc4656f89dd5efb77440dda592ffe8b5fc3c9fb9c935be9f321",
	"tent-filter/64":   "827dae5de0505f4e00a77573ff2cfe4721d84e0abb96fb89fd57d4e91fba0287",
	"tent-filter/200":  "bc452b977c6e9a37a8594051426c6c6439381a80d5b7578c68a7e39eee0b0e2c",
	"tent-filter/1000": "cfd22e59dd55c21f96cdd02980a0b01f2901993337cd21e942e6455ae9cb5191",
	"memo/13":          "d39e7f25224a6277bad44944b92fdb385a534d432666cfc8508eedd07a8090bd",
	"memo/64":          "6a8c71c84c3be49fedd8da2fffb5cf443de91016b6aad795e37365558892686a",
	"memo/200":         "39295ec43e1b3cd7e46a39719f96ac605e1cb9e37d83da1987b021ffb2f3aa00",
	"memo/1000":        "98f0eae83375326f595c8e9fcd31433b86f4f901f91ec3e1c31d68be00bb7c16",
}

// goldenWorld is a seeded Gaussian-cluster problem: a resnet50 analogue
// trained for a few epochs on it, and drifted (scaled, shifted) unlabeled
// pools of any size drawn from the same clusters.
type goldenWorld struct {
	base    *nn.Network
	centers *tensor.Matrix
}

const goldenDim, goldenClasses = 32, 8

func newGoldenWorld() *goldenWorld {
	rng := tensor.NewRand(0x601D, 7)
	centers := tensor.New(goldenClasses, goldenDim)
	centers.RandNormal(rng, 0, 1.5)
	w := &goldenWorld{centers: centers}
	x, labels := w.draw(40*goldenClasses, rng, 1, 0)
	w.base = nn.NewClassifier(nn.ArchResNet50, goldenDim, goldenClasses, rng)
	nn.Fit(w.base, x, labels, nn.TrainConfig{Epochs: 4, BatchSize: 32, Rng: rng})
	return w
}

func (w *goldenWorld) draw(n int, rng *rand.Rand, scale, shift float64) (*tensor.Matrix, []int) {
	x := tensor.New(n, goldenDim)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % goldenClasses
		c, r := w.centers.Row(labels[i]), x.Row(i)
		for j := range r {
			r[j] = scale*(c[j]+rng.NormFloat64()) + shift
		}
	}
	return x, labels
}

func hashBN(net *nn.Network) string {
	h := sha256.New()
	var b [8]byte
	for _, l := range nn.CaptureBN(net).Layers {
		for _, vs := range [][]float64{l.Gamma, l.Beta, l.RunMean, l.RunVar} {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestAdaptGoldenBN(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes were recorded on amd64; other ports may fuse multiply-adds")
	}
	w := newGoldenWorld()
	jitter := func(x []float64, rng *rand.Rand) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = v + 0.1*rng.NormFloat64()
		}
		return out
	}
	variants := []struct {
		name string
		cfg  Config
	}{
		{"tent", Config{Method: TENT}},
		{"tent-filter", Config{Method: TENT, EntropyFilter: 0.3}},
		{"memo", Config{Method: MEMO, Augment: jitter}},
	}
	defer tensor.SetMaxWorkers(0)
	for _, v := range variants {
		for _, n := range []int{13, 64, 200, 1000} {
			pool, _ := w.draw(n, tensor.NewRand(uint64(n), 3), 0.6, 0.8)
			key := fmt.Sprintf("%s/%d", v.name, n)
			for _, width := range []int{1, 8} {
				tensor.SetMaxWorkers(width)
				cfg := v.cfg
				cfg.Epochs, cfg.MinSteps, cfg.Rng = 2, 30, tensor.NewRand(uint64(n), 9)
				adapted, err := AdaptContext(context.Background(), w.base, pool, cfg)
				if err != nil {
					t.Fatalf("%s width %d: %v", key, width, err)
				}
				if got := hashBN(adapted); got != goldenBN[key] {
					t.Errorf("%s width %d: BN hash\n got %s\nwant %s", key, width, got, goldenBN[key])
				}
			}
		}
	}
}
