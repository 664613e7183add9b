package tensor

// Quantized int8 kernels: the dequantize-free serving substrate.
//
// An I8Matrix stores weights as int8 codes in [-127, 127] with one scale
// per output column (per-channel symmetric quantization — the layout
// mobile inference runtimes use, because per-tensor scales let a single
// outlier column destroy everyone else's resolution). Activations are
// quantized per-tensor. A layer then reduces to an int8×int8→int32
// matmul plus a per-column float multiply in the epilogue, and the
// epilogue either requantizes straight back to int8 (hidden layers —
// the activation tensor never exists in float) or emits float64 logits
// (the final layer, whose consumers are softmax and the MSP detector).
//
// The fast path packs the weight matrix into dual-lane float64 panels:
// codes are offset to unsigned (v+128 ∈ [0,255]) and two adjacent
// output columns ride in one float64 as two 26-bit integer lanes
// (lo + hi·2^26). One float multiply-add then performs two
// multiply-accumulates exactly: products are < 2^16, per-lane sums stay
// < 2^26 for up to 1024 reduction steps (hence the chunked flush), and
// the combined value stays < 2^52, inside float64's exact-integer
// range. The offset is removed algebraically after the reduction:
//
//	Σ a·b = Σ (a+128)(b+128) − 128·Σa − 128·Σb − 128²·k
//
// where Σb per column is precomputed at pack time and Σa falls out of
// the activation widening pass. This wins over both direct int8
// arithmetic (scalar integer multiplies bottleneck on one execution
// port; measured *slower* than the float64 kernels) and integer-SWAR in
// uint64 lanes (same port problem), because it rides the two FP
// multiply ports exactly like the proven float kernels in block.go —
// same loop shape, half the iterations, half the panel bandwidth.
// Measured: ≥2× single-core over MatMulBiasReLU from 128² up, ~3× at
// 512² (see BENCH_kernels.json, QuantMatMul int8-vs-float pairs).
//
// Bit-exactness contract: every kernel here is integer-exact, so the
// packed path, the reference loops and any worker-pool width produce
// identical bytes. The reference loop i8RowAccRef is the small-shape
// fallback and, through the *Ref kernels, the differential/fuzz oracle.
// Unlike
// the float kernels, association is a free choice (exact integers don't
// round), which is why the inner loop may split its accumulation into
// two independent dependency chains.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

const (
	// i8LaneBits positions the high lane; 26 bits leaves headroom for
	// 1024 accumulated 16-bit products per lane.
	i8LaneBits = 26
	i8LaneMask = 1<<i8LaneBits - 1
	// i8ChunkK is the reduction-chunk length between lane flushes:
	// 1024·255·255 < 2^26 keeps the low lane from carrying into the
	// high one.
	i8ChunkK = 1024
)

// I8Matrix is a quantized weight matrix: Rows×Cols int8 codes (row
// major) with a per-column scale, so the float value at (i, j) is
// Data[i*Cols+j]·Scales[j]. Codes must stay in [-127, 127] (symmetric
// quantization; QuantizeI8 guarantees it).
//
// Pack (called implicitly by the kernels) builds the dual-lane panels;
// after the first Pack the codes must be treated as immutable. An
// I8Matrix must not be copied by value once in use.
type I8Matrix struct {
	Rows, Cols int
	Data       []int8
	Scales     []float64 // per-column, length Cols

	packOnce sync.Once
	packed   []float64 // dual-lane panels, Rows×(Cols/2), chunk-major
	corr     []int32   // per chunk×packed column: 128·Σb + 128²·kc
	tail     []int8    // odd Cols: the last column's codes, length Rows
	np       int       // packed columns = Cols/2
}

// NewI8Matrix returns a zeroed rows×cols quantized matrix with unit
// scales.
func NewI8Matrix(rows, cols int) *I8Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	q := &I8Matrix{Rows: rows, Cols: cols, Data: make([]int8, rows*cols), Scales: make([]float64, cols)}
	for j := range q.Scales {
		q.Scales[j] = 1
	}
	return q
}

// I8ScaleFor returns the symmetric quantization scale mapping
// [-maxAbs, maxAbs] onto [-127, 127] (1 when the range is empty, so
// all-zero tensors quantize to all-zero codes instead of dividing by
// zero).
func I8ScaleFor(maxAbs float64) float64 {
	if maxAbs <= 0 || math.IsInf(maxAbs, 1) || math.IsNaN(maxAbs) {
		return 1
	}
	return maxAbs / 127
}

// QuantizeI8 quantizes w to int8 with one symmetric scale per column
// (per-channel: each output neuron's weight column gets its own range).
func QuantizeI8(w *Matrix) *I8Matrix {
	q := NewI8Matrix(w.Rows, w.Cols)
	n := w.Cols
	for j := 0; j < n; j++ {
		var maxAbs float64
		for i := 0; i < w.Rows; i++ {
			if a := math.Abs(w.Data[i*n+j]); a > maxAbs {
				maxAbs = a
			}
		}
		s := I8ScaleFor(maxAbs)
		q.Scales[j] = s
		inv := 1 / s
		for i := 0; i < w.Rows; i++ {
			v := math.Round(w.Data[i*n+j] * inv)
			if v > 127 {
				v = 127
			} else if v < -127 {
				v = -127
			}
			q.Data[i*n+j] = int8(v)
		}
	}
	return q
}

// QuantizeI8VecTo quantizes src into dst codes at a single symmetric
// scale, returning how many values clamped at ±127 (range saturation).
// len(dst) must equal len(src).
func QuantizeI8VecTo(dst []int8, src []float64, scale float64) int {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: QuantizeI8VecTo dst len %d != src len %d", len(dst), len(src)))
	}
	inv := 1 / scale
	sat := 0
	// Saturation is rare under a calibrated scale, so the range checks
	// stay as (well-predicted) branches; the rounding itself uses the
	// magic-constant ties-to-even trick because math.Round is not
	// intrinsified at the baseline GOAMD64 level and would dominate this
	// loop. The pre-clamp bounds |f| ≤ 127, keeping the trick exact.
	const shift = 3 << 51 // 1.5·2^52: float64s ≥ 2^52 have integer ulps
	for i, v := range src {
		f := v * inv
		if f > 127 {
			dst[i] = 127
			sat++
			continue
		}
		if f < -127 {
			dst[i] = -127
			sat++
			continue
		}
		t := f + shift
		dst[i] = int8(int32(uint32(math.Float64bits(t))))
	}
	return sat
}

// SizeBytes returns the packed storage footprint: one byte per code
// plus the per-column float scales.
func (q *I8Matrix) SizeBytes() int { return len(q.Data) + 8*len(q.Scales) }

// Pack builds the dual-lane panels and offset corrections. It runs at
// most once (subsequent calls are no-ops) and is safe to race; the
// kernels call it implicitly. Codes must not change afterwards.
func (q *I8Matrix) Pack() { q.packOnce.Do(q.buildPacked) }

func (q *I8Matrix) buildPacked() {
	k, n := q.Rows, q.Cols
	np := n / 2
	q.np = np
	if n%2 == 1 {
		q.tail = make([]int8, k)
		for kk := 0; kk < k; kk++ {
			q.tail[kk] = q.Data[kk*n+n-1]
		}
	}
	if np == 0 || k == 0 {
		return
	}
	nChunks := (k + i8ChunkK - 1) / i8ChunkK
	q.packed = make([]float64, k*np)
	q.corr = make([]int32, nChunks*2*np)
	for c, k0 := 0, 0; k0 < k; c, k0 = c+1, k0+i8ChunkK {
		k1 := min(k0+i8ChunkK, k)
		corr := q.corr[c*2*np : (c+1)*2*np]
		for j := range corr {
			corr[j] = int32(k1-k0) * 128 * 128
		}
		for kk := k0; kk < k1; kk++ {
			row := q.Data[kk*n : kk*n+n]
			pr := q.packed[kk*np : kk*np+np]
			for p := 0; p < np; p++ {
				lo, hi := row[2*p], row[2*p+1]
				pr[p] = float64(int16(lo)+128) + float64(int16(hi)+128)*(1<<i8LaneBits)
				corr[2*p] += int32(lo) * 128
				corr[2*p+1] += int32(hi) * 128
			}
		}
	}
}

// i8CheckArgs validates the common kernel contract.
func i8CheckArgs(op string, a []int8, m int, w *I8Matrix, outLen int) {
	if m < 0 {
		panic(fmt.Sprintf("tensor: %s negative rows %d", op, m))
	}
	if len(a) != m*w.Rows {
		panic(fmt.Sprintf("tensor: %s activations len %d != %d*%d", op, len(a), m, w.Rows))
	}
	if outLen != m*w.Cols {
		panic(fmt.Sprintf("tensor: %s dst len %d != %d*%d", op, outLen, m, w.Cols))
	}
}

func i8CheckEpilogue(op string, mul, fbias []float64, cols int) {
	if len(mul) != cols || len(fbias) != cols {
		panic(fmt.Sprintf("tensor: %s mul/fbias len %d/%d != cols %d", op, len(mul), len(fbias), cols))
	}
}

// i8RowAccRef accumulates one activation row against the raw codes with
// the straight naive loop — the differential oracle and the small-shape
// fallback. Integer arithmetic is exact, so skipping zero activations
// cannot change the result.
func i8RowAccRef(acc []int32, ai []int8, w *I8Matrix) {
	n := w.Cols
	for j := range acc {
		acc[j] = 0
	}
	for kk, av := range ai {
		if av == 0 {
			continue
		}
		wr := w.Data[kk*n : kk*n+n : kk*n+n]
		a := int32(av)
		for j, bv := range wr {
			acc[j] += a * int32(bv)
		}
	}
}

// i8RowAccPacked accumulates one activation row via the dual-lane
// panels, bit-identical to i8RowAccRef. aw must hold w.Rows float64s
// and lanes w.np; both are caller scratch.
func i8RowAccPacked(acc []int32, ai []int8, w *I8Matrix, aw, lanes []float64) {
	if w.tail != nil {
		var t int32
		for kk, v := range ai {
			t += int32(v) * int32(w.tail[kk])
		}
		acc[w.Cols-1] = t
	}
	if w.np == 0 {
		return
	}
	if w.Rows <= i8ChunkK {
		i8RowAccPacked1(acc, ai, w, aw, lanes)
		return
	}
	i8RowAccPackedChunked(acc, ai, w, aw, lanes)
}

// i8RowAccPacked1 is the single-chunk fast path (k ≤ i8ChunkK — every
// realistic layer): one fused widen-and-sum pass, the dual-chain
// multiply loop over the whole panel, one extraction pass. Keeping the
// chunk machinery out of this body is worth ~15% on 128-wide layers.
func i8RowAccPacked1(acc []int32, ai []int8, w *I8Matrix, aw, lanes []float64) {
	k, np := w.Rows, w.np
	var sumA int32
	for kk, v := range ai {
		sumA += int32(v)
		aw[kk] = float64(int16(v) + 128)
	}
	di := lanes[:np:np]
	for j := range di {
		di[j] = 0
	}
	packed := w.packed
	kq := 0
	for ; kq+8 <= k; kq += 8 {
		a0, a1, a2, a3 := aw[kq], aw[kq+1], aw[kq+2], aw[kq+3]
		a4, a5, a6, a7 := aw[kq+4], aw[kq+5], aw[kq+6], aw[kq+7]
		b0 := packed[kq*np : kq*np+np : kq*np+np]
		b1 := packed[(kq+1)*np : (kq+1)*np+np : (kq+1)*np+np]
		b2 := packed[(kq+2)*np : (kq+2)*np+np : (kq+2)*np+np]
		b3 := packed[(kq+3)*np : (kq+3)*np+np : (kq+3)*np+np]
		b4 := packed[(kq+4)*np : (kq+4)*np+np : (kq+4)*np+np]
		b5 := packed[(kq+5)*np : (kq+5)*np+np : (kq+5)*np+np]
		b6 := packed[(kq+6)*np : (kq+6)*np+np : (kq+6)*np+np]
		b7 := packed[(kq+7)*np : (kq+7)*np+np : (kq+7)*np+np]
		for j, v := range b0 {
			// Two independent chains: exact-integer accumulation is
			// association-free, and the split doubles the ILP the
			// FP ports can extract.
			s := di[j] + a0*v + a1*b1[j] + a2*b2[j] + a3*b3[j]
			t := a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j]
			di[j] = s + t
		}
	}
	for ; kq < k; kq++ {
		av := aw[kq]
		bk := packed[kq*np : kq*np+np : kq*np+np]
		for j, bv := range bk {
			di[j] += av * bv
		}
	}
	corr := w.corr[: 2*np : 2*np]
	base := int64(sumA) * 128
	for p := 0; p < np; p++ {
		u := uint64(di[p])
		acc[2*p] = int32(int64(u&i8LaneMask) - base - int64(corr[2*p]))
		acc[2*p+1] = int32(int64(u>>i8LaneBits) - base - int64(corr[2*p+1]))
	}
}

// i8RowFusedRequant1 is i8RowAccPacked1 with the requantize epilogue
// fused into lane extraction: accumulators go straight from the lane
// registers through scale-and-round to int8 codes without an int32
// round trip through memory. The arithmetic per output is expression-
// for-expression the same as i8RowAccPacked1 + i8RequantRow (extract
// to int32, then float64(acc)·mul + fbias + shift, low-32 rounding,
// clamp), so the differential tests hold it bit-identical to the
// reference path. Returns the row's saturation count.
func i8RowFusedRequant1(dstq []int8, ai []int8, w *I8Matrix, aw, lanes, mul, fbias []float64, relu bool) int {
	const shift = 3 << 51 // 1.5·2^52; see i8RequantRow
	k, np := w.Rows, w.np
	sat := 0
	lo := int32(-127)
	negThresh := int64(-127)
	if relu {
		lo = 0
		negThresh = int64(math.MinInt32) - 1
	}
	// Branch-free scale/round/clamp, expression-for-expression the same
	// as i8RequantRow's loop body.
	requant := func(j int, a int32) {
		t := float64(a)*mul[j] + fbias[j] + shift
		c := int32(uint32(math.Float64bits(t)))
		dstq[j] = int8(min(max(c, lo), 127))
		sat += int(uint64(127-int64(c))>>63) + int(uint64(int64(c)-negThresh)>>63)
	}
	if w.tail != nil {
		var t int32
		for kk, v := range ai {
			t += int32(v) * int32(w.tail[kk])
		}
		requant(w.Cols-1, t)
	}
	if np == 0 {
		return sat
	}
	var sumA int32
	for kk, v := range ai {
		sumA += int32(v)
		aw[kk] = float64(int16(v) + 128)
	}
	di := lanes[:np:np]
	for j := range di {
		di[j] = 0
	}
	packed := w.packed
	kq := 0
	for ; kq+8 <= k; kq += 8 {
		a0, a1, a2, a3 := aw[kq], aw[kq+1], aw[kq+2], aw[kq+3]
		a4, a5, a6, a7 := aw[kq+4], aw[kq+5], aw[kq+6], aw[kq+7]
		b0 := packed[kq*np : kq*np+np : kq*np+np]
		b1 := packed[(kq+1)*np : (kq+1)*np+np : (kq+1)*np+np]
		b2 := packed[(kq+2)*np : (kq+2)*np+np : (kq+2)*np+np]
		b3 := packed[(kq+3)*np : (kq+3)*np+np : (kq+3)*np+np]
		b4 := packed[(kq+4)*np : (kq+4)*np+np : (kq+4)*np+np]
		b5 := packed[(kq+5)*np : (kq+5)*np+np : (kq+5)*np+np]
		b6 := packed[(kq+6)*np : (kq+6)*np+np : (kq+6)*np+np]
		b7 := packed[(kq+7)*np : (kq+7)*np+np : (kq+7)*np+np]
		for j, v := range b0 {
			s := di[j] + a0*v + a1*b1[j] + a2*b2[j] + a3*b3[j]
			t := a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j]
			di[j] = s + t
		}
	}
	for ; kq < k; kq++ {
		av := aw[kq]
		bk := packed[kq*np : kq*np+np : kq*np+np]
		for j, bv := range bk {
			di[j] += av * bv
		}
	}
	corr := w.corr[: 2*np : 2*np]
	base := int64(sumA) * 128
	for p := 0; p < np; p++ {
		u := uint64(di[p])
		requant(2*p, int32(int64(u&i8LaneMask)-base-int64(corr[2*p])))
		requant(2*p+1, int32(int64(u>>i8LaneBits)-base-int64(corr[2*p+1])))
	}
	return sat
}

// i8RowAccPackedChunked is the general path for k > i8ChunkK: the
// reduction flushes lanes every i8ChunkK steps so low-lane sums never
// carry into the high lane.
func i8RowAccPackedChunked(acc []int32, ai []int8, w *I8Matrix, aw, lanes []float64) {
	k, np := w.Rows, w.np
	for kk, v := range ai {
		aw[kk] = float64(int16(v) + 128)
	}
	for c, k0 := 0, 0; k0 < k; c, k0 = c+1, k0+i8ChunkK {
		k1 := min(k0+i8ChunkK, k)
		kc := k1 - k0
		var sumA int32
		for _, v := range ai[k0:k1] {
			sumA += int32(v)
		}
		di := lanes[:np:np]
		for j := range di {
			di[j] = 0
		}
		panel := w.packed[k0*np : k1*np]
		kq := 0
		for ; kq+8 <= kc; kq += 8 {
			a0, a1, a2, a3 := aw[k0+kq], aw[k0+kq+1], aw[k0+kq+2], aw[k0+kq+3]
			a4, a5, a6, a7 := aw[k0+kq+4], aw[k0+kq+5], aw[k0+kq+6], aw[k0+kq+7]
			b0 := panel[kq*np : kq*np+np : kq*np+np]
			b1 := panel[(kq+1)*np : (kq+1)*np+np : (kq+1)*np+np]
			b2 := panel[(kq+2)*np : (kq+2)*np+np : (kq+2)*np+np]
			b3 := panel[(kq+3)*np : (kq+3)*np+np : (kq+3)*np+np]
			b4 := panel[(kq+4)*np : (kq+4)*np+np : (kq+4)*np+np]
			b5 := panel[(kq+5)*np : (kq+5)*np+np : (kq+5)*np+np]
			b6 := panel[(kq+6)*np : (kq+6)*np+np : (kq+6)*np+np]
			b7 := panel[(kq+7)*np : (kq+7)*np+np : (kq+7)*np+np]
			for j, v := range b0 {
				s := di[j] + a0*v + a1*b1[j] + a2*b2[j] + a3*b3[j]
				t := a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j]
				di[j] = s + t
			}
		}
		for ; kq < kc; kq++ {
			av := aw[k0+kq]
			bk := panel[kq*np : kq*np+np : kq*np+np]
			for j, bv := range bk {
				di[j] += av * bv
			}
		}
		corr := w.corr[c*2*np : (c+1)*2*np]
		base := int64(sumA) * 128
		if k0 == 0 {
			for p := 0; p < np; p++ {
				u := uint64(di[p])
				acc[2*p] = int32(int64(u&i8LaneMask) - base - int64(corr[2*p]))
				acc[2*p+1] = int32(int64(u>>i8LaneBits) - base - int64(corr[2*p+1]))
			}
		} else {
			for p := 0; p < np; p++ {
				u := uint64(di[p])
				acc[2*p] += int32(int64(u&i8LaneMask) - base - int64(corr[2*p]))
				acc[2*p+1] += int32(int64(u>>i8LaneBits) - base - int64(corr[2*p+1]))
			}
		}
	}
}

// i8RequantRow is the shared fused epilogue: scale the int32
// accumulators back to int8 codes, optionally clamping negatives first
// (ReLU at the symmetric zero point), and count saturations at ±127.
// Both the packed kernels and the reference oracles call this exact
// function, so epilogue rounding can never diverge between them.
//
// Rounding is ties-to-even via the shift-by-2^52 trick: adding
// 1.5·2^52 aligns the float's mantissa so its low 32 bits ARE the
// rounded two's-complement integer, one add and one register move
// instead of math.Round (branchy bit manipulation) or math.Floor
// (guarded behind a per-call SSE4.1 check at the v1 amd64 baseline) —
// the epilogue profiled at a quarter of fused-kernel time on either.
// Valid for |acc·mul + fbias| < 2^31, which quantization scales hold
// by orders of magnitude (the clamp target is ±127). The half-tie
// direction is a free choice for a quantizer as long as every path
// agrees, which sharing this function guarantees.
//
// The clamp and saturation count are branch-free (min/max lower to
// conditional moves, the counters are sign-bit extractions): requant
// outcomes on real data are data-random, so a compare-and-branch
// epilogue pays a misprediction per element and profiles ~3× slower
// than this form despite identical instruction counts.
func i8RequantRow(dst []int8, acc []int32, mul, fbias []float64, relu bool) int {
	const shift = 3 << 51 // 1.5·2^52
	n := len(acc)
	dst, mul, fbias = dst[:n:n], mul[:n:n], fbias[:n:n]
	sat := 0
	lo := int32(-127)
	negThresh := int64(-127) // clamping at lo counts as saturation...
	if relu {
		// ...except ReLU zeroing, which is normal: park the threshold
		// below every int32 so the sign-bit test never fires (and the
		// int64 subtraction cannot overflow).
		lo = 0
		negThresh = int64(math.MinInt32) - 1
	}
	for j, a := range acc {
		t := float64(a)*mul[j] + fbias[j] + shift
		c := int32(uint32(math.Float64bits(t)))
		dst[j] = int8(min(max(c, lo), 127))
		sat += int(uint64(127-int64(c))>>63) + int(uint64(int64(c)-negThresh)>>63)
	}
	return sat
}

// i8DequantRow is the float epilogue of the final layer: logits never
// round back to codes.
func i8DequantRow(dst []float64, acc []int32, mul, fbias []float64) {
	n := len(acc)
	dst, mul, fbias = dst[:n:n], mul[:n:n], fbias[:n:n]
	for j, a := range acc {
		dst[j] = float64(a)*mul[j] + fbias[j]
	}
}

// i8Out selects the epilogue of one fused kernel call: exactly one of
// i32 (raw accumulators), q8 (requantize) or f64 (dequantize) is set.
type i8Out struct {
	i32        []int32
	q8         []int8
	f64        []float64
	mul, fbias []float64
	relu       bool
}

// i8RowsRange runs rows [lo, hi) through accumulation plus epilogue,
// returning the range's saturation count. Scratch comes from the
// workspace arena, one bundle per range (zero steady-state allocs).
func i8RowsRange(a []int8, w *I8Matrix, out i8Out, usePacked bool, lo, hi int) int {
	k, n := w.Rows, w.Cols
	var ws *I8Workspace
	var aw, lanes []float64
	if usePacked {
		ws = GetI8Workspace(k+w.np, n)
		aw, lanes = ws.f[:k], ws.f[k:k+w.np]
	} else if out.i32 == nil {
		ws = GetI8Workspace(0, n)
	}
	sat := 0
	if usePacked && out.q8 != nil && k <= i8ChunkK {
		// The hidden-layer hot path: extraction and requantize fuse
		// into one pass, codes never detour through an int32 row.
		for i := lo; i < hi; i++ {
			sat += i8RowFusedRequant1(out.q8[i*n:i*n+n:i*n+n], a[i*k:i*k+k:i*k+k], w, aw, lanes, out.mul, out.fbias, out.relu)
		}
		PutI8Workspace(ws)
		return sat
	}
	for i := lo; i < hi; i++ {
		ai := a[i*k : i*k+k : i*k+k]
		acc := out.i32
		if acc != nil {
			acc = acc[i*n : i*n+n : i*n+n]
		} else {
			acc = ws.acc[:n:n]
		}
		if usePacked {
			i8RowAccPacked(acc, ai, w, aw, lanes)
		} else {
			i8RowAccRef(acc, ai, w)
		}
		switch {
		case out.q8 != nil:
			sat += i8RequantRow(out.q8[i*n:i*n+n:i*n+n], acc, out.mul, out.fbias, out.relu)
		case out.f64 != nil:
			i8DequantRow(out.f64[i*n:i*n+n:i*n+n], acc, out.mul, out.fbias)
		}
	}
	PutI8Workspace(ws)
	return sat
}

// i8Dispatch mirrors the float kernels' dispatch: packed panels above
// the blocked thresholds, the reference loop below them, and row
// parallelism above parallelThreshold. Results are bit-identical on
// every path (integer exactness), so the worker-pool width can never
// change an inference.
func i8Dispatch(a []int8, m int, w *I8Matrix, out i8Out) int {
	usePacked := w.Rows >= blockedMinK && w.Cols >= blockedMinN
	if usePacked {
		w.Pack()
	}
	if m*w.Rows*w.Cols < parallelThreshold || Workers() == 1 {
		return i8RowsRange(a, w, out, usePacked, 0, m)
	}
	// The shared saturation counter would escape into the fan-out
	// closure and cost one heap allocation per call; recycle it so the
	// kernels add nothing beyond ParallelFor's own bookkeeping.
	sat, _ := i8SatPool.Get().(*atomic.Int64)
	if sat == nil {
		sat = new(atomic.Int64)
	}
	sat.Store(0)
	parallelRows(m, func(lo, hi int) {
		sat.Add(int64(i8RowsRange(a, w, out, usePacked, lo, hi)))
	})
	total := int(sat.Load())
	i8SatPool.Put(sat)
	return total
}

var i8SatPool sync.Pool

// I8MatMulBiasReLU is the fused quantized layer op: accumulate a·w in
// int32, then requantize each output straight back to an int8 code as
// round(acc·mul[j] + fbias[j]) clamped to [-127, 127], with an optional
// ReLU (a clamp at the symmetric zero point) folded in front of the
// clamp. No float intermediate tensor ever exists. The per-column mul
// and fbias carry the activation/weight scales, the dense bias and any
// folded batch-norm (see nn.QuantizeInt8). Returns the number of
// outputs that saturated at ±127 — the overflow telemetry surfaced as
// nazar_quant_saturations_total.
func I8MatMulBiasReLU(dst []int8, a []int8, m int, w *I8Matrix, mul, fbias []float64, relu bool) int {
	i8CheckArgs("I8MatMulBiasReLU", a, m, w, len(dst))
	i8CheckEpilogue("I8MatMulBiasReLU", mul, fbias, w.Cols)
	return i8Dispatch(a, m, w, i8Out{q8: dst, mul: mul, fbias: fbias, relu: relu})
}

// I8MatMulBiasFloat is the fused final-layer op: accumulate a·w in
// int32 and dequantize each output to float64 as acc·mul[j] + fbias[j]
// (logit-layer consumers — softmax, MSP scoring — need float, and
// requantizing logits would throw away detector resolution).
func I8MatMulBiasFloat(dst []float64, a []int8, m int, w *I8Matrix, mul, fbias []float64) {
	i8CheckArgs("I8MatMulBiasFloat", a, m, w, len(dst))
	i8CheckEpilogue("I8MatMulBiasFloat", mul, fbias, w.Cols)
	i8Dispatch(a, m, w, i8Out{f64: dst, mul: mul, fbias: fbias})
}
