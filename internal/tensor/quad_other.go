//go:build !amd64

package tensor

// useAVX is false off amd64: quadRow always runs its Go loop.
var useAVX = false

func quadRowAVX(d, b *float64, n int, a0, a1, a2, a3 float64) {
	panic("tensor: AVX row body called off amd64")
}
