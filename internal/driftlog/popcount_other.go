//go:build !amd64

package driftlog

// useAVX2 is false off amd64: popcountAnd always runs its Go loop.
var useAVX2 = false

func popcountAndAVX2(a, b, f *uint64, n int) (total, flagged int) {
	panic("driftlog: AVX2 popcount body called off amd64")
}
