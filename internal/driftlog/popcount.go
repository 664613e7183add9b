package driftlog

import "math/bits"

// popcountAnd is the one word kernel under every bitset count: over
// i < len(a) it returns
//
//	total   = Σ popcount(a[i] & b[i])
//	flagged = Σ popcount(a[i] & b[i] & f[i])
//
// with f[i] read as 0 past f's end (a drift bitmap ends at its last flagged
// word). b must be at least as long as a. On amd64 hosts with AVX2
// (tensor.HasAVX2, decided once at start-up) the words run through a
// 256-bit body (popcount_amd64.s); the loop in popcountAndGo is the path
// everywhere else and the tests' oracle for the vector body. The counts
// are exact integers, so the body never changes a result.
func popcountAnd(a, b, f []uint64) (total, flagged int) {
	n := len(a)
	b = b[:n]
	if len(f) < n {
		// No row past f's end is flagged: b stands in as its own flags
		// there and the flagged half of the count is dropped.
		total, _ = popcountAndBody(a[len(f):], b[len(f):], b[len(f):])
		n = len(f)
	}
	t, flagged := popcountAndBody(a[:n], b[:n], f[:n])
	return total + t, flagged
}

// popcountAndBody is popcountAnd over operands of equal length.
func popcountAndBody(a, b, f []uint64) (total, flagged int) {
	if len(a) == 0 {
		return 0, 0
	}
	if useAVX2 {
		return popcountAndAVX2(&a[0], &b[0], &f[0], len(a))
	}
	return popcountAndGo(a, b, f)
}

// popcountAndGo is popcountAndBody's portable loop.
func popcountAndGo(a, b, f []uint64) (total, flagged int) {
	b, f = b[:len(a)], f[:len(a)]
	for i, x := range a {
		x &= b[i]
		total += bits.OnesCount64(x)
		flagged += bits.OnesCount64(x & f[i])
	}
	return total, flagged
}
