package tensor

import "fmt"

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
// codes, row by row — bit-identical to i8MatMulI32.
func i8MatMulI32Ref(dst []int32, a []int8, m int, w *I8Matrix) {
	i8CheckArgs("i8MatMulI32Ref", a, m, w, len(dst))
	k, n := w.Rows, w.Cols
	for i := 0; i < m; i++ {
		i8RowAccRef(dst[i*n:i*n+n:i*n+n], a[i*k:i*k+k:i*k+k], w)
	}
}

// matMulBiasRef computes dst = a·b + bias, clamped by ReLU when relu is
// set, with mask (when non-nil) receiving whether each pre-activation
// was positive: MatMul's accumulation, then matMulBiasRange's row
// epilogue as the branchy loop it was before the clamp went through
// Keep — the oracle that epilogue must match bit for bit.
func matMulBiasRef(dst, a, b *Matrix, bias []float64, relu bool, mask []bool) {
	MatMul(dst, a, b)
	n := b.Cols
	for i := 0; i < dst.Rows; i++ {
		di := dst.Row(i)
		switch {
		case relu && mask != nil:
			mi := mask[i*n : i*n+n]
			for j, bv := range bias {
				v := di[j] + bv
				if v > 0 {
					di[j] = v
					mi[j] = true
				} else {
					di[j] = 0
					mi[j] = false
				}
			}
		case relu:
			for j, bv := range bias {
				if v := di[j] + bv; v > 0 {
					di[j] = v
				} else {
					di[j] = 0
				}
			}
		default:
			for j, bv := range bias {
				di[j] += bv
			}
		}
	}
}

// i8MatMulI32 computes dst = a·w over int8 codes into int32
// accumulators through the production dispatch (packed panels, row
// fan-out): a is m×w.Rows (row-major codes), dst is m×w.Cols. It
// exposes the kernels' raw accumulators, which no product path reads.
func i8MatMulI32(dst []int32, a []int8, m int, w *I8Matrix) {
	i8CheckArgs("i8MatMulI32", a, m, w, len(dst))
	i8Dispatch(a, m, w, i8Out{i32: dst})
}

// i8MatMulBiasReLURef is the sequential reference oracle for
// I8MatMulBiasReLU: naive accumulation into the same shared epilogue,
// bit-identical including the saturation count.
func i8MatMulBiasReLURef(dst []int8, a []int8, m int, w *I8Matrix, mul, fbias []float64, relu bool) int {
	i8CheckArgs("i8MatMulBiasReLURef", a, m, w, len(dst))
	i8CheckEpilogue("i8MatMulBiasReLURef", mul, fbias, w.Cols)
	return i8RowsRange(a, w, i8Out{q8: dst, mul: mul, fbias: fbias, relu: relu}, false, 0, m)
}

// i8MatMulBiasFloatRef is the sequential reference oracle for
// I8MatMulBiasFloat.
func i8MatMulBiasFloatRef(dst []float64, a []int8, m int, w *I8Matrix, mul, fbias []float64) {
	i8CheckArgs("i8MatMulBiasFloatRef", a, m, w, len(dst))
	i8CheckEpilogue("i8MatMulBiasFloatRef", mul, fbias, w.Cols)
	i8RowsRange(a, w, i8Out{f64: dst, mul: mul, fbias: fbias}, false, 0, m)
}

// at returns the dequantized float value at (i, j).
func (q *I8Matrix) at(i, j int) float64 {
	return float64(q.Data[i*q.Cols+j]) * q.Scales[j]
}

// transposed returns a newly allocated transpose of m.
func (m *Matrix) transposed() *Matrix { return m.TransposeInto(New(m.Cols, m.Rows)) }

// addRowVector adds the length-Cols vector v to every row of m: the
// unfused bias step MatMulBias is pinned against.
func (m *Matrix) addRowVector(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: addRowVector len %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, b := range v {
			row[j] += b
		}
	}
}
