package tensor

import (
	"math"
	"math/rand/v2"
)

// NewRand returns a deterministic PRNG seeded from the two words. Every
// stochastic component in the repository takes an explicit *rand.Rand so
// that experiments are reproducible end to end.
func NewRand(seed1, seed2 uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed1, seed2))
}

// RandNormal fills m with i.i.d. N(mean, std²) samples from rng.
func (m *Matrix) RandNormal(rng *rand.Rand, mean, std float64) {
	for i := range m.Data {
		m.Data[i] = mean + std*rng.NormFloat64()
	}
}

// HeInit fills m with the He/Kaiming initialization suited to ReLU
// networks: N(0, sqrt(2/fanIn)).
func (m *Matrix) HeInit(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2 / float64(fanIn))
	m.RandNormal(rng, 0, std)
}

// RandUnitVector returns a uniformly distributed point on the unit
// (dim-1)-sphere.
func RandUnitVector(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for {
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		n := Norm2(v)
		if n > 1e-12 {
			for i := range v {
				v[i] /= n
			}
			return v
		}
	}
}
