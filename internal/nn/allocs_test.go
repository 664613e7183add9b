package nn

import (
	"fmt"
	"math"
	"testing"

	"nazar/internal/tensor"
)

// unfusedForward runs the network layer by layer, bypassing the fusion
// peephole in Network.Forward — the reference path for the fusion
// differential tests.
func unfusedForward(n *Network, x *tensor.Matrix, mode Mode) *tensor.Matrix {
	h := x
	for _, l := range n.LayersList {
		h = l.Forward(h, mode)
	}
	return h
}

// TestForwardFusionBitIdentical pins the fused (Dense|BatchNorm)+ReLU
// forward against the plain layer-by-layer sequence: logits and every
// parameter gradient must agree bit-for-bit in every mode.
func TestForwardFusionBitIdentical(t *testing.T) {
	for _, mode := range []Mode{Train, Eval, Adapt} {
		rng := tensor.NewRand(42, 9)
		fused := NewClassifier(ArchResNet34, 24, 6, rng)
		plain := fused.Clone()
		x := randBatch(7, 17, 24)

		ly := fused.Forward(x, mode)
		ry := unfusedForward(plain, x, mode)
		if ly.Rows != ry.Rows || ly.Cols != ry.Cols {
			t.Fatalf("%v: shape mismatch", mode)
		}
		for i := range ry.Data {
			if math.Float64bits(ly.Data[i]) != math.Float64bits(ry.Data[i]) {
				t.Fatalf("%v: fused logits diverge at %d: %v vs %v", mode, i, ly.Data[i], ry.Data[i])
			}
		}

		// Backward through both paths must produce identical gradients
		// (the fused forward fills the ReLU masks the backward needs).
		_, dl := CrossEntropy(ly, make([]int, ly.Rows))
		dr := dl.Clone()
		fused.Backward(dl)
		plain.Backward(dr)
		fp, pp := fused.Params(), plain.Params()
		for k := range fp {
			for i := range fp[k].Grad.Data {
				if math.Float64bits(fp[k].Grad.Data[i]) != math.Float64bits(pp[k].Grad.Data[i]) {
					t.Fatalf("%v: grad %s diverges at %d", mode, fp[k].Name, i)
				}
			}
		}

		// BN running statistics must also match (the fused pass computes
		// them identically).
		fb, pb := fused.BatchNorms(), plain.BatchNorms()
		for k := range fb {
			for j := range fb[k].RunMean {
				if fb[k].RunMean[j] != pb[k].RunMean[j] || fb[k].RunVar[j] != pb[k].RunVar[j] {
					t.Fatalf("%v: BN running stats diverge", mode)
				}
			}
		}
	}
}

// TestDenseFusedReLUBitIdentical exercises the Dense+ReLU fused kernel
// directly (the stock classifier only has BN+ReLU adjacency).
func TestDenseFusedReLUBitIdentical(t *testing.T) {
	rng := tensor.NewRand(3, 3)
	net := NewNetwork(NewDense(20, 30, rng), NewReLU(), NewDense(30, 5, rng))
	plain := net.Clone()
	x := randBatch(11, 13, 20)

	ly := net.Forward(x, Eval)
	ry := unfusedForward(plain, x, Eval)
	for i := range ry.Data {
		if math.Float64bits(ly.Data[i]) != math.Float64bits(ry.Data[i]) {
			t.Fatalf("fused dense+relu diverges at %d", i)
		}
	}
	_, dl := CrossEntropy(ly, make([]int, ly.Rows))
	dr := dl.Clone()
	net.Backward(dl)
	plain.Backward(dr)
	fp, pp := net.Params(), plain.Params()
	for k := range fp {
		for i := range fp[k].Grad.Data {
			if math.Float64bits(fp[k].Grad.Data[i]) != math.Float64bits(pp[k].Grad.Data[i]) {
				t.Fatalf("grad %s diverges at %d", fp[k].Name, i)
			}
		}
	}
}

// TestNetworkSteadyStateAllocs pins the tentpole claim: once warm, a
// full supervised step (forward, loss, backward, optimizer) performs no
// matrix allocations at pool width 1.
func TestNetworkSteadyStateAllocs(t *testing.T) {
	tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(0)

	rng := tensor.NewRand(5, 6)
	net := NewClassifier(ArchResNet50, 32, 8, rng)
	opt := NewAdam(1e-3)
	x := randBatch(13, 64, 32)
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i % 8
	}
	var dlogits tensor.Matrix
	step := func() {
		net.ZeroGrads()
		logits := net.Forward(x, Train)
		_, grad := CrossEntropyInto(&dlogits, logits, labels)
		net.Backward(grad)
		opt.Step(net.Params())
	}
	for i := 0; i < 3; i++ {
		step() // warm scratch and optimizer state
	}
	if n := testing.AllocsPerRun(10, step); n > 0.5 {
		t.Fatalf("steady-state training step allocates %v per run, want ~0", n)
	}
}

// TestEvalForwardSteadyStateAllocs: pure inference must be allocation-
// free too (the on-device hot path).
func TestEvalForwardSteadyStateAllocs(t *testing.T) {
	tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(0)

	rng := tensor.NewRand(8, 2)
	net := NewClassifier(ArchResNet18, 16, 4, rng)
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	net.LogitsOne(x) // warm scratch
	if n := testing.AllocsPerRun(50, func() {
		net.LogitsOne(x)
	}); n > 0.5 {
		t.Fatalf("steady-state LogitsOne allocates %v per run, want ~0", n)
	}
}

// TestDenseBackwardInputGradientBitIdentical pins Dense.Backward's dx, a
// forward product over a transposed copy of W, bit for bit against the
// dout·Wᵀ dot-product loop, at the adaptation shape
// (64 rows through a 96×96 layer), at odd shapes on both sides of the
// blocked-kernel gates and under the parallel fan-out, with ReLU-style
// zeros in dout (the rows the forward kernel skips).
func TestDenseBackwardInputGradientBitIdentical(t *testing.T) {
	for _, sh := range []struct{ rows, in, out int }{
		{64, 96, 96}, {1, 96, 96}, {13, 7, 9}, {5, 33, 3}, {3, 2, 17}, {65, 129, 67},
	} {
		for _, w := range []int{1, 8} {
			tensor.SetMaxWorkers(w)
			rng := tensor.NewRand(uint64(sh.in), uint64(sh.out))
			d := NewDense(sh.in, sh.out, rng)
			x := randBatch(uint64(sh.rows), sh.rows, sh.in)
			d.Forward(x, Train)
			dout := randBatch(uint64(sh.rows)+1, sh.rows, sh.out)
			for i := range dout.Data {
				if i%3 == 0 {
					dout.Data[i] = 0
				}
			}
			requireDxDotProduct(t, fmt.Sprintf("%dx%d·(%dx%d)ᵀ @w%d", sh.rows, sh.out, sh.in, sh.out, w),
				d.Backward(dout), dout, d.w.W)
		}
	}
	tensor.SetMaxWorkers(0)
}

// requireDxDotProduct asserts dx = dout·wᵀ bit for bit against the
// dot-product loop.
func requireDxDotProduct(t *testing.T, what string, dx, dout, w *tensor.Matrix) {
	t.Helper()
	for i := 0; i < dout.Rows; i++ {
		for j := 0; j < w.Rows; j++ {
			var s float64
			for k, v := range dout.Row(i) {
				s += v * w.At(j, k)
			}
			if g := dx.At(i, j); math.Float64bits(g) != math.Float64bits(s) {
				t.Fatalf("%s: dx[%d,%d] = %v, dot product %v", what, i, j, g, s)
			}
		}
	}
}

// TestDenseFrozenTransposeCache: a frozen Dense transposes W once and
// keeps the copy across steps. Every way W can change afterwards drops
// it — unfreezing before an optimizer step, loading a snapshot — so dx
// stays the dot product over the current W. A view of the layer reads
// weights it does not own and never keeps a copy.
func TestDenseFrozenTransposeCache(t *testing.T) {
	net := NewNetwork(NewDense(24, 16, tensor.NewRand(24, 16)))
	d := net.LayersList[0].(*Dense)
	x, dout := randBatch(1, 9, 24), randBatch(2, 9, 16)
	backward := func(what string, d *Dense) {
		t.Helper()
		d.Forward(x, Adapt)
		requireDxDotProduct(t, what, d.Backward(dout), dout, d.w.W)
	}

	freezeAll(net)
	backward("frozen", d)
	cached := d.w.wT
	if cached == nil {
		t.Fatal("a frozen Dense kept no transpose of W")
	}
	backward("frozen, second step", d)
	if d.w.wT != cached {
		t.Fatal("the transpose was rebuilt on a step that did not change W")
	}

	net.UnfreezeAll()
	backward("trainable", d)
	NewAdam(0.1).Step(net.Params())
	freezeAll(net)
	backward("frozen again after an Adam step", d)

	other := NewNetwork(NewDense(24, 16, tensor.NewRand(7, 7)))
	if err := CaptureNet(other).ApplyTo(net); err != nil {
		t.Fatal(err)
	}
	backward("frozen after loading a snapshot", d)

	view := net.View()
	vd := view.LayersList[0].(*Dense)
	backward("view", vd)
	if vd.w.wT != nil {
		t.Fatal("a view kept a transpose of weights it does not own")
	}
}

// freezeAll marks every parameter of net frozen.
func freezeAll(net *Network) {
	for _, p := range net.Params() {
		p.freeze()
	}
}
