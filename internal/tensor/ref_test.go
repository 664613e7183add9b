package tensor

// The reference kernels: the straight sequential loops that the blocked,
// packed and parallel kernels are differentially tested and benchmarked
// against (the "ref" sub-benchmarks). They do not check shapes; the
// production kernels they are compared with do.

// matMulRef computes dst = a·b.
func matMulRef(dst, a, b *Matrix) { matMulRange(dst, a, b, 0, a.Rows) }

// matMulATBRef computes dst = aᵀ·b.
func matMulATBRef(dst, a, b *Matrix) { matMulATBRange(dst, a, b, 0, a.Cols) }

// matMulABTRef computes dst = a·bᵀ as one dot product per element: the
// oracle that MatMul over a transposed copy of b (the input gradient
// dy·Wᵀ) must match bit for bit.
func matMulABTRef(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		ai := a.Row(i)
		di := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			bj := b.Row(j)
			var s float64
			for k, av := range ai {
				s += av * bj[k]
			}
			di[j] = s
		}
	}
}

// i8MatMulI32Ref computes dst = a·w into int32 accumulators over the raw
// codes, row by row — bit-identical to I8MatMulI32.
func i8MatMulI32Ref(dst []int32, a []int8, m int, w *I8Matrix) {
	i8CheckArgs("i8MatMulI32Ref", a, m, w, len(dst))
	k, n := w.Rows, w.Cols
	for i := 0; i < m; i++ {
		i8RowAccRef(dst[i*n:i*n+n:i*n+n], a[i*k:i*k+k:i*k+k], w)
	}
}
