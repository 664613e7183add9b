package driftlog

import "nazar/internal/tensor"

// useAVX2 selects popcountAnd's vector body.
var useAVX2 = tensor.HasAVX2()

// popcountAndAVX2 is popcountAndBody's vector body over n ≥ 1 words at a,
// b and f.
//
//go:noescape
func popcountAndAVX2(a, b, f *uint64, n int) (total, flagged int)
