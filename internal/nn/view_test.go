package nn

import (
	"math"
	"sync"
	"testing"

	"nazar/internal/tensor"
)

// trainedNet returns a classifier whose weights and BN statistics have
// moved off their initial values, left all-trainable as Fit leaves it.
func trainedNet(arch Arch, seed uint64) *Network {
	net := NewClassifier(arch, 16, 5, tensor.NewRand(seed, 1))
	x := randBatch(seed+1, 40, 16)
	labels := make([]int, x.Rows)
	for i := range labels {
		labels[i] = i % 5
	}
	Fit(net, x, labels, TrainConfig{Epochs: 2, BatchSize: 8})
	return net
}

// shiftedBN returns net's BN state moved by a per-element offset, so a
// view that skipped ApplyTo (or applied it to the source) shows.
func shiftedBN(net *Network) *BNSnapshot {
	snap := CaptureBN(net)
	for _, l := range snap.Layers {
		for j := range l.Gamma {
			l.Gamma[j] += 0.01 * float64(j+1)
			l.Beta[j] -= 0.02 * float64(j+1)
			l.RunMean[j] += 0.03
			l.RunVar[j] *= 1.1
		}
	}
	return snap
}

func bitEqual(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: element %d: %v vs %v", what, i, a[i], b[i])
		}
	}
}

func snapshotsBitEqual(t *testing.T, what string, a, b *BNSnapshot) {
	t.Helper()
	if len(a.Layers) != len(b.Layers) {
		t.Fatalf("%s: %d vs %d BN layers", what, len(a.Layers), len(b.Layers))
	}
	for i := range a.Layers {
		bitEqual(t, what+" gamma", a.Layers[i].Gamma, b.Layers[i].Gamma)
		bitEqual(t, what+" beta", a.Layers[i].Beta, b.Layers[i].Beta)
		bitEqual(t, what+" mean", a.Layers[i].RunMean, b.Layers[i].RunMean)
		bitEqual(t, what+" var", a.Layers[i].RunVar, b.Layers[i].RunVar)
	}
}

// TestViewMatchesClone: a view carrying a BN snapshot computes what a
// deep copy carrying it computes, bit for bit, batched and per example,
// and reads back the same BN state — while holding the source's weight
// matrices, not copies of them.
func TestViewMatchesClone(t *testing.T) {
	for _, arch := range Archs {
		src := trainedNet(arch, 200)
		srcBN, snap := CaptureBN(src), shiftedBN(src)
		ref, view := src.Clone(), src.View()
		if err := snap.ApplyTo(ref); err != nil {
			t.Fatal(err)
		}
		if err := snap.ApplyTo(view); err != nil {
			t.Fatal(err)
		}
		x := randBatch(201, 9, 16)
		bitEqual(t, string(arch)+" Logits", ref.Logits(x).Data, view.Logits(x).Data)
		for i := 0; i < x.Rows; i++ {
			bitEqual(t, string(arch)+" LogitsOne", ref.LogitsOne(x.Row(i)), view.LogitsOne(x.Row(i)))
		}
		snapshotsBitEqual(t, string(arch)+" CaptureBN", CaptureBN(ref), CaptureBN(view))
		snapshotsBitEqual(t, string(arch)+" source BN", srcBN, CaptureBN(src))

		vp, sp := view.Params(), src.Params()
		for i, l := range paramLayers(view) {
			_, dense := l.(*Dense)
			if shares := vp[i].W == sp[i].W; shares != dense {
				t.Fatalf("%s: param %d (%T): shares weights = %v", arch, i, l, shares)
			}
			if dense && (!vp[i].Frozen || vp[i].Grad != nil) {
				t.Fatalf("%s: shared param %d: frozen %v, grad %v", arch, i, vp[i].Frozen, vp[i].Grad != nil)
			}
		}
	}
}

// paramLayers returns, for every entry of n.Params(), the layer owning it.
func paramLayers(n *Network) []Layer {
	var out []Layer
	for i, ps := range n.paramsByLayer() {
		for range ps {
			out = append(out, n.LayersList[i])
		}
	}
	return out
}

// netState is everything of a network a view of it must leave alone.
type netState struct {
	w, grad [][]float64
	frozen  []bool
	bn      *BNSnapshot
}

func captureState(n *Network) netState {
	s := netState{bn: CaptureBN(n)}
	for _, p := range n.Params() {
		s.w = append(s.w, append([]float64(nil), p.W.Data...))
		s.grad = append(s.grad, append([]float64(nil), p.Grad.Data...))
		s.frozen = append(s.frozen, p.Frozen)
	}
	return s
}

func (s netState) requireUnchanged(t *testing.T, what string, n *Network) {
	t.Helper()
	for i, p := range n.Params() {
		bitEqual(t, what+" weights", s.w[i], p.W.Data)
		bitEqual(t, what+" grad", s.grad[i], p.Grad.Data)
		if p.Frozen != s.frozen[i] {
			t.Fatalf("%s: param %d frozen %v, was %v", what, i, p.Frozen, s.frozen[i])
		}
	}
	snapshotsBitEqual(t, what+" BN", s.bn, CaptureBN(n))
}

// TestViewTrainingLeavesSourceUntouched: making a view trainable gives
// it its own weights first, so training it — or loading a full model
// into it — moves the view and nothing of the source.
func TestViewTrainingLeavesSourceUntouched(t *testing.T) {
	src := trainedNet(ArchResNet18, 210)
	src.FreezeExceptBN() // a mix of frozen and trainable flags to preserve
	before := captureState(src)
	x := randBatch(211, 32, 16)
	labels := make([]int, x.Rows)
	for i := range labels {
		labels[i] = (i * 3) % 5
	}

	view := src.View()
	view.UnfreezeAll()
	Fit(view, x, labels, TrainConfig{Epochs: 3, BatchSize: 8})
	before.requireUnchanged(t, "after Fit on a view", src)
	moved := false
	for i, p := range view.Params() {
		if p.W == src.Params()[i].W {
			t.Fatalf("param %d still shared after UnfreezeAll", i)
		}
		for j, v := range p.W.Data {
			moved = moved || v != before.w[i][j]
		}
	}
	if !moved {
		t.Fatal("Fit on the view trained nothing")
	}

	// TENT configuration on a view: the Dense weights stay shared and
	// frozen, the BN pair trains.
	tent := src.View()
	tent.FreezeExceptBN()
	opt := NewAdam(0.01)
	var dlogits tensor.Matrix
	for step := 0; step < 4; step++ {
		tent.ZeroGrads()
		_, g := EntropyInto(&dlogits, tent.Forward(x, Adapt))
		tent.BackwardParams(g)
		ClipGradients(tent.Params(), 1)
		opt.Step(tent.Params())
	}
	if tent.Params()[0].W != src.Params()[0].W {
		t.Fatal("FreezeExceptBN unshared a Dense weight")
	}
	before.requireUnchanged(t, "after TENT steps on a view", src)

	// Loading a full model into a view must not land in the source.
	loaded := src.View()
	if err := CaptureNet(trainedNet(ArchResNet18, 212)).ApplyTo(loaded); err != nil {
		t.Fatal(err)
	}
	before.requireUnchanged(t, "after NetSnapshot.ApplyTo on a view", src)
}

// TestViewCloneSharesNothing: Clone of a view is the deep copy Clone
// always was.
func TestViewCloneSharesNothing(t *testing.T) {
	src := trainedNet(ArchResNet18, 220)
	before := captureState(src)
	view := src.View()
	c := view.Clone()
	x := randBatch(221, 6, 16)
	bitEqual(t, "clone of view Logits", view.Logits(x).Data, c.Logits(x).Data)
	for i, p := range c.Params() {
		if p.W == view.Params()[i].W || p.Grad == nil {
			t.Fatalf("param %d: clone of a view shares weights or has no Grad", i)
		}
		for j := range p.W.Data {
			p.W.Data[j] += 1
		}
	}
	for _, bn := range c.BatchNorms() {
		bn.RunMean[0] = 42
	}
	before.requireUnchanged(t, "after writing a clone of a view", src)
	bitEqual(t, "view after writing its clone", src.Logits(x).Data, view.Logits(x).Data)
}

// TestViewsConcurrentInference: views of one backbone, each on its own
// goroutine, with more views being built beside them (run under -race).
func TestViewsConcurrentInference(t *testing.T) {
	src := trainedNet(ArchResNet34, 230)
	x := randBatch(231, 8, 16)
	want := src.Clone().Logits(x).Clone()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view := src.View()
			for it := 0; it < 50; it++ {
				for i := 0; i < x.Rows; i++ {
					got := view.LogitsOne(x.Row(i))
					for j, v := range got {
						if math.Float64bits(v) != math.Float64bits(want.At(i, j)) {
							t.Errorf("row %d logit %d: %v, want %v", i, j, v, want.At(i, j))
							return
						}
					}
				}
				if it%10 == 0 {
					view = view.View() // a view of a view reads the same backbone
				}
			}
		}()
	}
	wg.Wait()
}
