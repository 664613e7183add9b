//go:build !amd64

package tensor

// useAVX is false off amd64: quadRow always runs its Go loop.
var useAVX = false

// avx2 is false off amd64: the drift log's bitset kernel runs its Go loop.
var avx2 = false

// avx512Popcnt is false off amd64.
var avx512Popcnt = false

func quadRowAVX(d, b *float64, n int, a0, a1, a2, a3 float64) {
	panic("tensor: AVX row body called off amd64")
}
