package nn

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"nazar/internal/tensor"
)

// kernelSpecials are the values the elementwise kernels' branches used
// to decide on: signed zeros, NaN, infinities, the smallest subnormals
// and normals of both signs, and magnitudes whose products underflow.
var kernelSpecials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, 1e-200, -1e-200,
}

// kernelCase is one input set for the layer-kernel differential: x and
// dout are rows×cols, w is cols×cols, the vectors have cols entries.
type kernelCase struct {
	x, dout, w                         *tensor.Matrix
	gamma, beta, runMean, runVar, bias []float64
}

// newKernelCase draws a case from rng: one value in every specialEvery
// is a special, the rest are normal draws, or raw bit patterns (any
// float, NaN payloads included) when raw is set.
func newKernelCase(rng *rand.Rand, rows, cols, specialEvery int, raw bool) kernelCase {
	draw := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			switch {
			case rng.IntN(specialEvery) == 0:
				out[i] = kernelSpecials[rng.IntN(len(kernelSpecials))]
			case raw && rng.IntN(4) == 0:
				out[i] = math.Float64frombits(rng.Uint64())
			default:
				out[i] = rng.NormFloat64()
			}
		}
		return out
	}
	runVar := draw(cols)
	for j, v := range runVar {
		runVar[j] = math.Abs(v)
	}
	return kernelCase{
		x:     tensor.FromSlice(rows, cols, draw(rows*cols)),
		dout:  tensor.FromSlice(rows, cols, draw(rows*cols)),
		w:     tensor.FromSlice(cols, cols, draw(cols*cols)),
		gamma: draw(cols), beta: draw(cols), runMean: draw(cols), runVar: runVar, bias: draw(cols),
	}
}

// sameFloat reports whether a and b hold the same bits, or are both NaN.
// When two NaNs meet in an add, the hardware returns the payload of
// whichever operand the compiler placed first, and Go leaves that order
// to the compiler, so the differential compares any NaN with any NaN
// and every other value — the sign of a zero included — bit for bit.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func requireSame(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i, v := range want {
		if !sameFloat(got[i], v) {
			t.Fatalf("%s: element %d: %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), v, math.Float64bits(v))
		}
	}
}

func requireSameMask(t *testing.T, what string, got, want []bool) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: mask differs from the reference", what)
	}
}

// ownedParam is a trainable 1×len(v) parameter holding a copy of v.
func ownedParam(name string, v []float64) *Param {
	return &Param{Name: name, W: tensor.FromSlice(1, len(v), slices.Clone(v)), Grad: tensor.New(1, len(v))}
}

// checkLayerKernels runs every rewritten elementwise kernel and its
// reference (ref_test.go) on c: ReLU forward and backward; batch norm
// forward in every mode, alone and with the fused ReLU, then backward
// through both; the dense bias epilogue, plain and fused with ReLU.
func checkLayerKernels(t *testing.T, c kernelCase) {
	t.Helper()
	r := NewReLU()
	wantY, wantMask := reluForwardRef(c.x.Data)
	requireSame(t, "ReLU.Forward", r.Forward(c.x, Train).Data, wantY)
	requireSameMask(t, "ReLU.Forward", r.mask, wantMask)
	requireSame(t, "ReLU.Backward", r.Backward(c.dout).Data, reluBackwardRef(c.dout.Data, wantMask))

	for _, mode := range []Mode{Train, Eval, Adapt} {
		for _, fused := range []bool{false, true} {
			what := fmt.Sprintf("BatchNorm %v fused=%v", mode, fused)
			bn := newBatchNorm(0.1, 1e-5, ownedParam("gamma", c.gamma), ownedParam("beta", c.beta),
				slices.Clone(c.runMean), slices.Clone(c.runVar))
			ref := newBNRef(bn)
			var relu *ReLU
			if fused {
				relu = NewReLU()
			}
			y := bn.forward(c.x, mode, relu)
			wantY, wantMask := ref.forward(c.x, mode, fused)
			requireSame(t, what+" y", y.Data, wantY.Data)
			requireSame(t, what+" x̂", bn.xhat.Data, ref.xhat.Data)
			requireSame(t, what+" running mean", bn.RunMean, ref.runMean)
			requireSame(t, what+" running var", bn.RunVar, ref.runVar)

			g, wantG := c.dout, c.dout
			if fused {
				requireSameMask(t, what, relu.mask, wantMask)
				g = relu.Backward(c.dout)
				wantG = tensor.FromSlice(c.dout.Rows, c.dout.Cols, reluBackwardRef(c.dout.Data, wantMask))
				requireSame(t, what+" ReLU.Backward", g.Data, wantG.Data)
			}
			dx := bn.Backward(g)
			wantDx, wantDgamma, wantDbeta := ref.backward(wantG)
			requireSame(t, what+" dx", dx.Data, wantDx.Data)
			requireSame(t, what+" dγ", bn.gamma.Grad.Data, wantDgamma)
			requireSame(t, what+" dβ", bn.beta.Grad.Data, wantDbeta)
		}
	}

	w := &Param{Name: "W", W: c.w, Grad: tensor.New(c.w.Rows, c.w.Cols)}
	d := &Dense{In: c.w.Rows, Out: c.w.Cols, w: w, b: ownedParam("b", c.bias)}
	plainY, _ := denseForwardRef(c.x, c.w, c.bias, false)
	requireSame(t, "Dense.Forward", d.Forward(c.x, Eval).Data, plainY.Data)
	fusedY, fusedMask := denseForwardRef(c.x, c.w, c.bias, true)
	relu := NewReLU()
	requireSame(t, "Dense+ReLU fused", d.forwardFusedReLU(c.x, Eval, relu).Data, fusedY.Data)
	requireSameMask(t, "Dense+ReLU fused", relu.mask, fusedMask)
}

// TestLayerKernelsMatchRef holds the branch-free elementwise kernels to
// the branchy loops they replaced, bit for bit, on special-heavy inputs
// at shapes on both sides of the blocked-kernel gates (a single row
// takes batch norm's running-statistics path in every mode). The first
// case is built so that batch norm's pre-activation rounds to -0: a
// subnormal γ under a β of -0.
func TestLayerKernelsMatchRef(t *testing.T) {
	for i, sh := range []struct{ rows, cols int }{{17, 24}, {1, 5}, {2, 3}, {64, 96}, {9, 8}} {
		for _, every := range []int{2, 5} {
			c := newKernelCase(rand.New(rand.NewPCG(uint64(i), uint64(every))), sh.rows, sh.cols, every, false)
			if i == 0 {
				c.gamma[0], c.beta[0] = 5e-324, math.Copysign(0, -1)
				c.runMean[0], c.runVar[0] = 0, 1
				for r := 0; r < sh.rows; r++ {
					c.x.Set(r, 0, float64(r-sh.rows/2)/float64(sh.rows))
				}
				y := newBatchNorm(0.1, 1e-5, ownedParam("gamma", c.gamma), ownedParam("beta", c.beta),
					slices.Clone(c.runMean), slices.Clone(c.runVar)).Forward(c.x, Eval)
				if !slices.ContainsFunc(y.Data, func(v float64) bool { return v == 0 && math.Signbit(v) }) {
					t.Fatal("crafted case produced no -0 pre-activation")
				}
			}
			checkLayerKernels(t, c)
		}
	}
}

// FuzzLayerKernels runs the layer-kernel differential on fuzzer-chosen
// shapes, special-value densities and raw bit patterns.
func FuzzLayerKernels(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(23), uint8(1), false)
	f.Add(uint64(2), uint8(0), uint8(4), uint8(3), true)
	f.Add(uint64(3), uint8(63), uint8(95), uint8(7), true)
	f.Fuzz(func(t *testing.T, seed uint64, rowsB, colsB, everyB uint8, raw bool) {
		rows, cols, every := 1+int(rowsB)%64, 1+int(colsB)%96, 1+int(everyB)%8
		checkLayerKernels(t, newKernelCase(rand.New(rand.NewPCG(seed, 7)), rows, cols, every, raw))
	})
}
