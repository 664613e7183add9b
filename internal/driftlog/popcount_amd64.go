package driftlog

import "nazar/internal/tensor"

// hostBodies lists the popcountAnd bodies this host can run, narrowest
// first.
func hostBodies() []kernelBody {
	out := []kernelBody{bodyGo}
	if tensor.HasAVX2() {
		out = append(out, bodyAVX2)
	}
	if tensor.HasAVX512Popcnt() {
		out = append(out, bodyAVX512)
	}
	return out
}

// popcountAndAVX2 is popcountAndBody's 256-bit body over n ≥ 1 words at a,
// b and f.
//
//go:noescape
func popcountAndAVX2(a, b, f *uint64, n int) (total, flagged int)

// popcountAndAVX512 is popcountAndBody's 512-bit body over n ≥ 1 words at
// a, b and f.
//
//go:noescape
func popcountAndAVX512(a, b, f *uint64, n int) (total, flagged int)
