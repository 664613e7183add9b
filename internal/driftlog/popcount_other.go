//go:build !amd64

package driftlog

// hostBodies is the Go loop alone off amd64.
func hostBodies() []kernelBody { return []kernelBody{bodyGo} }

func popcountAndAVX2(a, b, f *uint64, n int) (total, flagged int) {
	panic("driftlog: AVX2 popcount body called off amd64")
}

func popcountAndAVX512(a, b, f *uint64, n int) (total, flagged int) {
	panic("driftlog: AVX-512 popcount body called off amd64")
}
