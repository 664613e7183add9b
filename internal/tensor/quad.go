package tensor

// quadRow is the one row kernel under every blocked float product: with
// n = len(d) and b holding four rows of length n back to back,
//
//	d[j] = d[j] + a0*b[j] + a1*b[n+j] + a2*b[2n+j] + a3*b[3n+j]
//
// for every j, left-associated against the destination as the
// bit-exactness contract in block.go requires. On amd64 hosts whose CPU
// and OS support AVX it runs a 256-bit body (quad_amd64.s) that handles
// four consecutive j per instruction. Each lane is a different output
// element, so every element still gets the same four multiplies and the
// same four additions in the same order, and the result is bit-identical
// to the loop below. The body uses separate VMULPD and VADDPD, never a
// fused multiply-add, whose single rounding would change the bits. The
// loop below is the path everywhere else, and the tests' oracle for the
// vector body.
func quadRow(d, b []float64, a0, a1, a2, a3 float64) {
	n := len(d)
	if n == 0 {
		return
	}
	b = b[: 4*n : 4*n]
	if useAVX {
		quadRowAVX(&d[0], &b[0], n, a0, a1, a2, a3)
		return
	}
	b0 := b[0:n:n]
	b1 := b[n : 2*n : 2*n]
	b2 := b[2*n : 3*n : 3*n]
	b3 := b[3*n : 4*n : 4*n]
	for j, v := range b0 {
		d[j] = d[j] + a0*v + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// UsesAVX reports whether the float kernels run the AVX row body on this
// host (decided once at start-up from CPUID and the OS-enabled register
// state), for the operator's metrics and logs.
func UsesAVX() bool { return useAVX }

// HasAVX2 reports whether this host can run 256-bit integer vector code:
// the CPU reports AVX2 and POPCNT and the OS saves the YMM register state.
// Decided once at start-up, from the same CPUID and XGETBV reads as
// UsesAVX; the drift log selects its bitset AND-popcount kernel by it.
func HasAVX2() bool { return avx2 }

// HasAVX512Popcnt reports whether this host can run 512-bit integer vector
// code with VPOPCNTQ: HasAVX2, plus the CPU reports AVX512F and
// AVX512_VPOPCNTDQ and the OS saves the opmask and ZMM register state.
// Decided once at start-up, like HasAVX2.
func HasAVX512Popcnt() bool { return avx512Popcnt }
