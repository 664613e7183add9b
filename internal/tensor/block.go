package tensor

import "math"

// Cache/register-blocked matmul kernels.
//
// Both blocked orientations (MatMul's a·b and MatMulATB's aᵀ·b) share one
// design: the inner loop streams a length-Cols destination row while
// folding in four source rows at a time (a "k-quad", quadRow in
// quad.go). Relative to the straight ikj loop this quarters the number
// of dst loads/stores per multiply-add and keeps the four panel scalars
// in registers. Row-major storage means every slice the inner loop
// touches is already contiguous, so no packing copies are needed (a
// packed-panel variant was measured and lost: the pack traffic costs
// more than it saves at these shapes — see DESIGN.md). The third
// orientation a neural network needs, a·bᵀ for input gradients, is
// MatMul over a transposed copy of b (nn's Dense.Backward): the same
// per-element sum as the a·bᵀ dot product, on the same row kernel.
//
// Bit-exactness contract: for every output element the kernels perform
// the same floating-point additions in the same order as the reference
// loops (matMulRange and friends), so results are bit-identical to the
// reference at any worker-pool width and with either quadRow body. Two
// rules keep it that way:
//
//  1. Accumulation must stay left-associated against the destination:
//     `d = d + a0*b0 + a1*b1 + ...`, never `d += a0*b0 + a1*b1 + ...`
//     (the latter sums the products first and adds them as one term,
//     which rounds differently).
//  2. Zero source values may only be skipped in groups whose products
//     are all exactly ±0: adding ±0 to a running sum that started at +0
//     can never change its bits for finite inputs, because a sum can
//     only become -0 through operations the accumulation never performs.
//
// The reference loops are kept both as the small-shape fallback (the
// quad setup overhead dominates tiny products) and as the oracle for the
// differential and fuzz tests.

// blockedMinK and blockedMinN gate the blocked kernels: below these the
// reference loop is at least as fast and far simpler.
const (
	blockedMinK = 8 // inner (reduction) dimension
	blockedMinN = 8 // destination row length
)

// matMulBlocked computes rows [lo,hi) of dst = a·b with 4-wide k-quads,
// bit-identical to matMulRange.
func matMulBlocked(dst, a, b *Matrix, lo, hi int) {
	n := b.Cols
	kk := a.Cols
	for i := lo; i < hi; i++ {
		di := dst.Data[i*n : i*n+n : i*n+n]
		for j := range di {
			di[j] = 0
		}
		ai := a.Row(i)
		matMulQuadRow(di, ai, b, n, kk)
	}
}

// matMulQuadRow accumulates di += ai·b using k-quads. di must be
// pre-initialized (zero for a plain product).
func matMulQuadRow(di, ai []float64, b *Matrix, n, kk int) {
	k := 0
	for ; k+4 <= kk; k += 4 {
		a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue // all four products are ±0; see bit-exactness note
		}
		quadRow(di, b.Data[k*n:], a0, a1, a2, a3)
	}
	for ; k < kk; k++ {
		av := ai[k]
		if av == 0 {
			continue
		}
		bk := b.Data[k*n : k*n+n : k*n+n]
		for j, bv := range bk {
			di[j] += av * bv
		}
	}
}

// matMulATBBlocked computes dst rows [lo,hi) of dst = aᵀ·b (dst row i is
// column i of a) with 4-wide quads over the shared reduction dimension
// (the rows of a and b), bit-identical to matMulATBRange.
func matMulATBBlocked(dst, a, b *Matrix, lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		di := dst.Data[i*n : i*n+n]
		for j := range di {
			di[j] = 0
		}
	}
	rows := a.Rows
	r := 0
	for ; r+4 <= rows; r += 4 {
		a0, a1, a2, a3 := a.Row(r), a.Row(r+1), a.Row(r+2), a.Row(r+3)
		br := b.Data[r*n:]
		for i := lo; i < hi; i++ {
			v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			quadRow(dst.Data[i*n:i*n+n:i*n+n], br, v0, v1, v2, v3)
		}
	}
	for ; r < rows; r++ {
		ar := a.Row(r)
		br := b.Data[r*n : r*n+n : r*n+n]
		for i := lo; i < hi; i++ {
			av := ar[i]
			if av == 0 {
				continue
			}
			di := dst.Data[i*n : i*n+n : i*n+n]
			for j, bv := range br {
				di[j] += av * bv
			}
		}
	}
}

// matMulBiasRange computes rows [lo,hi) of dst = a·b + bias, optionally
// applying ReLU in the same pass. mask, when non-nil, receives the ReLU
// activation mask (mask[i*n+j] reports whether the pre-activation was
// positive). The accumulation is the plain MatMul kernel; bias/ReLU run
// as a row epilogue, so dst is bit-identical to MatMul followed by a
// per-row bias add (+ ReLU).
func matMulBiasRange(dst, a, b *Matrix, bias []float64, relu bool, mask []bool, lo, hi int) {
	n := b.Cols
	kk := a.Cols
	blocked := kk >= blockedMinK && n >= blockedMinN
	for i := lo; i < hi; i++ {
		di := dst.Data[i*n : i*n+n : i*n+n]
		for j := range di {
			di[j] = 0
		}
		ai := a.Row(i)
		if blocked {
			matMulQuadRow(di, ai, b, n, kk)
		} else {
			for k, av := range ai {
				if av == 0 {
					continue
				}
				bk := b.Data[k*n : k*n+n : k*n+n]
				for j, bv := range bk {
					di[j] += av * bv
				}
			}
		}
		switch {
		case relu && mask != nil:
			bias, mi := bias[:len(di)], mask[i*n:][:len(di)]
			for j, v := range di {
				v += bias[j]
				pos := v > 0
				di[j] = Keep(v, pos)
				mi[j] = pos
			}
		case relu:
			bias := bias[:len(di)]
			for j, v := range di {
				v += bias[j]
				di[j] = Keep(v, v > 0)
			}
		default:
			for j, bv := range bias {
				di[j] += bv
			}
		}
	}
}

// Keep returns v when keep is set and +0 otherwise, as an AND of v's bits
// with an all-ones or all-zeros word: the compiler turns the mask into a
// conditional move, so the ReLU clamp and its backward select cost no
// branch whatever the sign pattern of the data. Keep(v, v > 0) is the
// ReLU of v with negatives, -0 and NaN all mapped to +0; Keep(dout,
// mask) is its backward, dout where the forward kept its input.
func Keep(v float64, keep bool) float64 {
	var m uint64
	if keep {
		m = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(v) & m)
}
