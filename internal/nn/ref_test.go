package nn

import (
	"math"

	"nazar/internal/tensor"
)

// The reference layer kernels: the branchy elementwise loops that
// ReLU, BatchNorm and the dense bias/ReLU epilogue ran before their
// clamps and selects went through tensor.Keep. The kernel differential
// (TestLayerKernelsMatchRef, FuzzLayerKernels) holds the production
// layers to them bit for bit. Each reference keeps its state in its own
// arguments, so it shares nothing with the layer it is compared with
// beyond the column-statistics helpers both call.

// reluForwardRef is ReLU.Forward: v where !(v <= 0) — which lets a NaN
// through with its mask set — and +0 elsewhere.
func reluForwardRef(x []float64) ([]float64, []bool) {
	y, mask := make([]float64, len(x)), make([]bool, len(x))
	for i, v := range x {
		if v <= 0 {
			y[i] = 0
			mask[i] = false
		} else {
			y[i] = v
			mask[i] = true
		}
	}
	return y, mask
}

// reluBackwardRef is ReLU.Backward: dout where the mask is set, +0
// elsewhere.
func reluBackwardRef(dout []float64, mask []bool) []float64 {
	dx := make([]float64, len(dout))
	for i, v := range dout {
		if mask[i] {
			dx[i] = v
		} else {
			dx[i] = 0
		}
	}
	return dx
}

// fusedClampRef is the clamp of the fused epilogues (dense+ReLU and
// batch-norm+ReLU): out where out > 0 — a NaN goes to +0 with its mask
// clear — and +0 elsewhere.
func fusedClampRef(out float64) (float64, bool) {
	if out > 0 {
		return out, true
	}
	return 0, false
}

// denseForwardRef is Dense.Forward, or with relu its fused forward:
// the product, then the bias added and clamped one element at a time.
func denseForwardRef(x, w *tensor.Matrix, bias []float64, relu bool) (*tensor.Matrix, []bool) {
	y := tensor.New(x.Rows, w.Cols)
	tensor.MatMul(y, x, w)
	var mask []bool
	if relu {
		mask = make([]bool, len(y.Data))
	}
	for i := 0; i < y.Rows; i++ {
		yr := y.Row(i)
		for j, bv := range bias {
			if !relu {
				yr[j] += bv
				continue
			}
			yr[j], mask[i*y.Cols+j] = fusedClampRef(yr[j] + bv)
		}
	}
	return y, mask
}

// bnRef is one batch-norm layer's reference state: the parameters and
// running statistics it starts from and what its forward pass leaves
// for the backward one.
type bnRef struct {
	momentum, eps   float64
	gamma, beta     []float64
	runMean, runVar []float64

	batched bool
	xhat    *tensor.Matrix
	invStd  []float64
}

// newBNRef copies bn's parameters and running statistics.
func newBNRef(bn *BatchNorm) *bnRef {
	return &bnRef{
		momentum: bn.Momentum, eps: bn.Eps,
		gamma: append([]float64(nil), bn.Gamma()...), beta: append([]float64(nil), bn.Beta()...),
		runMean: append([]float64(nil), bn.RunMean...), runVar: append([]float64(nil), bn.RunVar...),
	}
}

// forward is BatchNorm.forward, with the following ReLU's clamp and mask
// folded into the output loop when fused.
func (r *bnRef) forward(x *tensor.Matrix, mode Mode, fused bool) (*tensor.Matrix, []bool) {
	r.batched = mode != Eval && x.Rows > 1
	mean, variance := r.runMean, r.runVar
	if r.batched {
		mean = x.ColMeans()
		variance = x.ColVariances(mean)
		m := r.momentum
		for j := range r.runMean {
			r.runMean[j] = (1-m)*r.runMean[j] + m*mean[j]
			r.runVar[j] = (1-m)*r.runVar[j] + m*variance[j]
		}
	}
	r.invStd = make([]float64, x.Cols)
	for j := range r.invStd {
		r.invStd[j] = 1 / math.Sqrt(variance[j]+r.eps)
	}
	r.xhat = tensor.New(x.Rows, x.Cols)
	y := tensor.New(x.Rows, x.Cols)
	var mask []bool
	if fused {
		mask = make([]bool, x.Rows*x.Cols)
	}
	for i := 0; i < x.Rows; i++ {
		xr, hr, yr := x.Row(i), r.xhat.Row(i), y.Row(i)
		for j, v := range xr {
			h := (v - mean[j]) * r.invStd[j]
			hr[j] = h
			out := r.gamma[j]*h + r.beta[j]
			if !fused {
				yr[j] = out
				continue
			}
			mi := i*x.Cols + j
			if out > 0 {
				yr[j] = out
				mask[mi] = true
			} else {
				yr[j] = 0
				mask[mi] = false
			}
		}
	}
	return y, mask
}

// backward is BatchNorm.Backward: dL/dx, and the γ and β gradients
// Σdout·x̂ and Σdout.
func (r *bnRef) backward(dout *tensor.Matrix) (dx *tensor.Matrix, dgamma, dbeta []float64) {
	dgamma, dbeta = make([]float64, dout.Cols), make([]float64, dout.Cols)
	for i := 0; i < dout.Rows; i++ {
		dr, hr := dout.Row(i), r.xhat.Row(i)
		for j, dv := range dr {
			dgamma[j] += dv * hr[j]
			dbeta[j] += dv
		}
	}
	g := r.gamma
	dx = tensor.New(dout.Rows, dout.Cols)
	if !r.batched {
		for i := 0; i < dout.Rows; i++ {
			dr, xr := dout.Row(i), dx.Row(i)
			for j, dv := range dr {
				xr[j] = dv * g[j] * r.invStd[j]
			}
		}
		return dx, dgamma, dbeta
	}
	n := float64(dout.Rows)
	for i := 0; i < dout.Rows; i++ {
		dr, hr, xr := dout.Row(i), r.xhat.Row(i), dx.Row(i)
		for j, dv := range dr {
			xr[j] = g[j] * r.invStd[j] / n * (n*dv - dbeta[j] - hr[j]*dgamma[j])
		}
	}
	return dx, dgamma, dbeta
}
