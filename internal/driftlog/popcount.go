package driftlog

import (
	"math/bits"
	"slices"
)

// popcountAnd is the one word kernel under every bitset count: over
// i < len(a) it returns
//
//	total   = Σ popcount(a[i] & b[i])
//	flagged = Σ popcount(a[i] & b[i] & f[i])
//
// with f[i] read as 0 past f's end (a drift bitmap ends at its last flagged
// word). b must be at least as long as a. The words run through body, the
// widest of the host's bodies (hostBodies): on amd64 a 512-bit VPOPCNTQ body
// where the CPU has AVX-512 VPOPCNTDQ (tensor.HasAVX512Popcnt), else a 256-bit
// nibble-lookup body where it has AVX2 (tensor.HasAVX2), both in
// popcount_amd64.s; the loop in popcountAndGo is the path everywhere else and
// the tests' oracle for the vector bodies. The counts are exact integers, so
// the body never changes a result.
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

// kernelBody names one body of popcountAnd.
type kernelBody uint8

const (
	bodyGo kernelBody = iota
	bodyAVX2
	bodyAVX512
)

func (k kernelBody) String() string { return [...]string{"go", "avx2", "avx512"}[k] }

// body is the popcountAnd body every count runs, chosen once at start-up.
var body = slices.Max(hostBodies())

// popcountAndBody is popcountAnd over operands of equal length.
func popcountAndBody(a, b, f []uint64) (total, flagged int) {
	switch {
	case len(a) == 0:
		return 0, 0
	case body == bodyAVX512:
		return popcountAndAVX512(&a[0], &b[0], &f[0], len(a))
	case body == bodyAVX2:
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
