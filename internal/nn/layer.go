// Package nn is a from-scratch neural-network library: dense and
// batch-normalization layers with full backpropagation (including input
// gradients), cross-entropy and entropy losses, SGD/Adam optimizers and a
// training loop.
//
// It exists because the paper's mechanisms — softmax-confidence drift
// detection, TENT entropy minimization restricted to batch-norm
// parameters, Odin-style input perturbation — all require a real,
// differentiable model with batch-norm state. This package provides that
// substrate in pure Go so the rest of the system exercises genuine
// gradients and genuine BN statistics rather than mocked numbers.
//
// Buffer ownership: layers keep their forward/backward outputs in
// per-layer scratch that is overwritten by the next pass through the
// same layer. Callers that retain a returned matrix across passes must
// Clone it (see DESIGN.md). This makes steady-state Forward/Backward
// allocation-free, which the regression tests in allocs_test.go pin.
package nn

import (
	"fmt"
	"math"
	"math/rand/v2"

	"nazar/internal/tensor"
)

// Mode selects how stateful layers (batch norm) behave during a forward
// pass.
type Mode int

const (
	// Train uses batch statistics and updates running statistics; all
	// parameters receive gradients.
	Train Mode = iota
	// Eval uses running statistics; the model is frozen.
	Eval
	// Adapt is the TENT mode: batch statistics are used for
	// normalization and folded into the running statistics, and only
	// unfrozen parameters (typically the BN affine pair) receive
	// gradients.
	Adapt
)

func (m Mode) String() string {
	switch m {
	case Train:
		return "train"
	case Eval:
		return "eval"
	case Adapt:
		return "adapt"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Param is a single learnable tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Matrix
	// Grad is nil exactly when W belongs to another network (see
	// Network.View): such a parameter is frozen and read-only until own
	// gives it a private copy.
	Grad *tensor.Matrix
	// Frozen params are skipped by optimizers and by backward passes: a
	// frozen parameter's Grad is never written, so it stays all-zero from
	// the moment the parameter is frozen (see freeze).
	Frozen bool
}

// freeze marks p frozen and clears its gradient once; nothing writes it
// again until p is unfrozen.
func (p *Param) freeze() {
	p.Frozen = true
	if p.Grad != nil {
		p.Grad.Zero()
	}
}

// unfreeze makes p trainable, on its own weights.
func (p *Param) unfreeze() {
	p.own()
	p.Frozen = false
}

// own ends a view's sharing before anything writes p.W: the parameter
// gets a private copy of the weights it was reading and a gradient.
func (p *Param) own() {
	if p.Grad == nil {
		p.W = p.W.Clone()
		p.Grad = tensor.New(p.W.Rows, p.W.Cols)
	}
}

// view returns a frozen parameter reading p's weights in place.
func (p *Param) view() *Param {
	return &Param{Name: p.Name, W: p.W, Frozen: true}
}

func newParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), Grad: tensor.New(rows, cols)}
}

func (p *Param) clone() *Param {
	return &Param{Name: p.Name, W: p.W.Clone(), Grad: tensor.New(p.W.Rows, p.W.Cols), Frozen: p.Frozen}
}

// Layer is one stage of a sequential network.
type Layer interface {
	// Forward consumes a batch (rows = examples) and returns the layer
	// output, caching whatever Backward needs. The returned matrix is
	// layer-owned scratch, valid until the layer's next Forward.
	Forward(x *tensor.Matrix, mode Mode) *tensor.Matrix
	// Backward consumes dL/d(output) and returns dL/d(input),
	// accumulating the gradients of the layer's non-frozen parameters
	// along the way. The returned matrix is layer-owned scratch, valid
	// until the layer's next Backward.
	Backward(dout *tensor.Matrix) *tensor.Matrix
	// Params returns the layer's learnable parameters (may be empty).
	Params() []*Param
	// Clone returns a deep copy sharing no state with the receiver.
	Clone() Layer
}

// fusedReLULayer is implemented by layers whose forward pass can absorb
// an immediately following ReLU into a single fused kernel. The layer
// writes the activation mask into r so r.Backward works unchanged; the
// result must be bit-identical to Forward followed by r.Forward.
type fusedReLULayer interface {
	forwardFusedReLU(x *tensor.Matrix, mode Mode, r *ReLU) *tensor.Matrix
}

// paramGradLayer is implemented by layers that own parameters.
// backwardParams is the parameter half of Backward: it accumulates the
// gradients of the non-frozen parameters and computes no dL/d(input).
// Network.BackwardParams ends its walk with it.
type paramGradLayer interface {
	backwardParams(dout *tensor.Matrix)
}

// Dense is a fully connected layer: y = x·W + b.
type Dense struct {
	In, Out int
	w, b    *Param
	x       *tensor.Matrix // cached input

	// Persistent scratch, resized with Reshape and reused across steps.
	y, dx, dW tensor.Matrix
	db        []float64
}

// NewDense returns a Dense layer with He-initialized weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, w: newParam("W", in, out), b: newParam("b", 1, out)}
	d.w.W.HeInit(rng, in)
	return d
}

func (d *Dense) Forward(x *tensor.Matrix, _ Mode) *tensor.Matrix {
	d.x = x
	y := d.y.Reshape(x.Rows, d.Out)
	tensor.MatMulBias(y, x, d.w.W, d.b.W.Data)
	return y
}

// forwardFusedReLU runs dense+bias+ReLU in one kernel pass, never
// materializing the pre-activation; the ReLU layer receives the mask it
// needs for backward.
func (d *Dense) forwardFusedReLU(x *tensor.Matrix, _ Mode, r *ReLU) *tensor.Matrix {
	d.x = x
	y := d.y.Reshape(x.Rows, d.Out)
	tensor.MatMulBiasReLU(y, x, d.w.W, d.b.W.Data, r.ensureMask(x.Rows*d.Out))
	return y
}

func (d *Dense) Backward(dout *tensor.Matrix) *tensor.Matrix {
	d.backwardParams(dout)
	dx := d.dx.Reshape(dout.Rows, d.In)
	tensor.MatMulABT(dx, dout, d.w.W)
	return dx
}

func (d *Dense) backwardParams(dout *tensor.Matrix) {
	if !d.w.Frozen {
		// dW goes through scratch and a separate Add (rather than
		// accumulating into Grad directly) because Grad may already be
		// non-zero: detectors run two backward passes per step, and the
		// accumulation order is part of the pinned numerics.
		dW := d.dW.Reshape(d.In, d.Out)
		tensor.MatMulATB(dW, d.x, dout)
		d.w.Grad.Add(dW)
	}
	if !d.b.Frozen {
		if cap(d.db) < d.Out {
			d.db = make([]float64, d.Out)
		}
		db := dout.ColSumsInto(d.db[:d.Out])
		for j, v := range db {
			d.b.Grad.Data[j] += v
		}
	}
}

func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

func (d *Dense) Clone() Layer {
	return &Dense{In: d.In, Out: d.Out, w: d.w.clone(), b: d.b.clone()}
}

// view returns a Dense computing with d's weight and bias matrices in
// place, on scratch of its own.
func (d *Dense) view() *Dense {
	return &Dense{In: d.In, Out: d.Out, w: d.w.view(), b: d.b.view()}
}

// ReLU is the rectified linear activation.
type ReLU struct {
	mask  []bool
	y, dx tensor.Matrix
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// ensureMask resizes the activation mask to n entries and returns it.
func (r *ReLU) ensureMask(n int) []bool {
	if cap(r.mask) < n {
		r.mask = make([]bool, n)
	}
	r.mask = r.mask[:n]
	return r.mask
}

func (r *ReLU) Forward(x *tensor.Matrix, _ Mode) *tensor.Matrix {
	y := r.y.Reshape(x.Rows, x.Cols)
	mask := r.ensureMask(len(y.Data))
	for i, v := range x.Data {
		if v <= 0 {
			y.Data[i] = 0
			mask[i] = false
		} else {
			y.Data[i] = v
			mask[i] = true
		}
	}
	return y
}

func (r *ReLU) Backward(dout *tensor.Matrix) *tensor.Matrix {
	dx := r.dx.Reshape(dout.Rows, dout.Cols)
	for i, v := range dout.Data {
		if r.mask[i] {
			dx.Data[i] = v
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

func (r *ReLU) Params() []*Param { return nil }
func (r *ReLU) Clone() Layer     { return &ReLU{} }

// BatchNorm normalizes each feature over the batch and applies a learned
// affine transform. It is the layer Nazar adapts: TENT freezes everything
// else and optimizes only Gamma/Beta while normalizing with batch
// statistics.
type BatchNorm struct {
	Dim      int
	Momentum float64 // running-stat update rate (paper-typical 0.1)
	Eps      float64

	gamma, beta *Param
	// Running statistics (the non-learned half of a "BN version").
	RunMean, RunVar []float64

	// Backward caches.
	mode    Mode
	xhat    *tensor.Matrix
	invStd  []float64
	batched bool

	// Persistent scratch.
	xhatBuf, y, dx  tensor.Matrix
	meanBuf, varBuf []float64
	dgamma, dbeta   []float64
}

// NewBatchNorm returns a BatchNorm over dim features with γ=1, β=0.
func NewBatchNorm(dim int) *BatchNorm {
	bn := &BatchNorm{
		Dim:      dim,
		Momentum: 0.1,
		Eps:      1e-5,
		gamma:    newParam("gamma", 1, dim),
		beta:     newParam("beta", 1, dim),
		RunMean:  make([]float64, dim),
		RunVar:   make([]float64, dim),
		invStd:   make([]float64, dim),
		meanBuf:  make([]float64, dim),
		varBuf:   make([]float64, dim),
		dgamma:   make([]float64, dim),
		dbeta:    make([]float64, dim),
	}
	bn.gamma.W.Fill(1)
	for i := range bn.RunVar {
		bn.RunVar[i] = 1
	}
	return bn
}

// Gamma returns the scale parameter (length Dim).
func (bn *BatchNorm) Gamma() []float64 { return bn.gamma.W.Data }

// Beta returns the shift parameter (length Dim).
func (bn *BatchNorm) Beta() []float64 { return bn.beta.W.Data }

func (bn *BatchNorm) Forward(x *tensor.Matrix, mode Mode) *tensor.Matrix {
	return bn.forward(x, mode, nil)
}

// forwardFusedReLU folds the following ReLU's clamp and mask into the
// normalize+affine output loop.
func (bn *BatchNorm) forwardFusedReLU(x *tensor.Matrix, mode Mode, r *ReLU) *tensor.Matrix {
	return bn.forward(x, mode, r)
}

func (bn *BatchNorm) forward(x *tensor.Matrix, mode Mode, r *ReLU) *tensor.Matrix {
	if x.Cols != bn.Dim {
		panic(fmt.Sprintf("nn: BatchNorm dim %d got %d", bn.Dim, x.Cols))
	}
	bn.mode = mode
	// A single example carries no batch statistics; fall back to the
	// running ones even in Train/Adapt mode (mirrors framework behavior
	// for inference-sized batches).
	bn.batched = mode != Eval && x.Rows > 1

	var mean, variance []float64
	if bn.batched {
		mean = x.ColMeansInto(bn.meanBuf)
		variance = x.ColVariancesInto(bn.varBuf, mean)
		m := bn.Momentum
		for j := range bn.RunMean {
			bn.RunMean[j] = (1-m)*bn.RunMean[j] + m*mean[j]
			bn.RunVar[j] = (1-m)*bn.RunVar[j] + m*variance[j]
		}
	} else {
		mean, variance = bn.RunMean, bn.RunVar
	}

	for j := range bn.invStd {
		bn.invStd[j] = 1 / math.Sqrt(variance[j]+bn.Eps)
	}

	xhat := bn.xhatBuf.Reshape(x.Rows, x.Cols)
	y := bn.y.Reshape(x.Rows, x.Cols)
	g, b := bn.gamma.W.Data, bn.beta.W.Data
	var mask []bool
	if r != nil {
		mask = r.ensureMask(x.Rows * x.Cols)
	}
	for i := 0; i < x.Rows; i++ {
		xr, hr, yr := x.Row(i), xhat.Row(i), y.Row(i)
		for j, v := range xr {
			h := (v - mean[j]) * bn.invStd[j]
			hr[j] = h
			out := g[j]*h + b[j]
			if r == nil {
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
	bn.xhat = xhat
	return y
}

// backwardParams leaves Σdout·x̂ and Σdout in the dgamma/dbeta scratch
// (the batch-statistics dx needs both, frozen or not) and adds them to
// the non-frozen parameter's Grad. They are identical in both
// normalization modes.
func (bn *BatchNorm) backwardParams(dout *tensor.Matrix) {
	dgamma, dbeta := bn.dgamma, bn.dbeta
	for j := range dgamma {
		dgamma[j] = 0
		dbeta[j] = 0
	}
	for i := 0; i < dout.Rows; i++ {
		dr, hr := dout.Row(i), bn.xhat.Row(i)
		for j, dv := range dr {
			dgamma[j] += dv * hr[j]
			dbeta[j] += dv
		}
	}
	if !bn.gamma.Frozen {
		for j, v := range dgamma {
			bn.gamma.Grad.Data[j] += v
		}
	}
	if !bn.beta.Frozen {
		for j, v := range dbeta {
			bn.beta.Grad.Data[j] += v
		}
	}
}

func (bn *BatchNorm) Backward(dout *tensor.Matrix) *tensor.Matrix {
	bn.backwardParams(dout)
	g := bn.gamma.W.Data
	dx := bn.dx.Reshape(dout.Rows, dout.Cols)
	if !bn.batched {
		// Running-stat normalization is a fixed affine map.
		for i := 0; i < dout.Rows; i++ {
			dr, xr := dout.Row(i), dx.Row(i)
			for j, dv := range dr {
				xr[j] = dv * g[j] * bn.invStd[j]
			}
		}
		return dx
	}
	// Full batch-statistics backward:
	// dx = γ·invStd/n · (n·dout − Σdout − x̂·Σ(dout·x̂))
	n := float64(dout.Rows)
	dgamma, dbeta := bn.dgamma, bn.dbeta
	for i := 0; i < dout.Rows; i++ {
		dr, hr, xr := dout.Row(i), bn.xhat.Row(i), dx.Row(i)
		for j, dv := range dr {
			xr[j] = g[j] * bn.invStd[j] / n * (n*dv - dbeta[j] - hr[j]*dgamma[j])
		}
	}
	return dx
}

func (bn *BatchNorm) Params() []*Param { return []*Param{bn.gamma, bn.beta} }

func (bn *BatchNorm) Clone() Layer {
	c := NewBatchNorm(bn.Dim)
	c.Momentum = bn.Momentum
	c.Eps = bn.Eps
	c.gamma = bn.gamma.clone()
	c.beta = bn.beta.clone()
	copy(c.RunMean, bn.RunMean)
	copy(c.RunVar, bn.RunVar)
	return c
}
