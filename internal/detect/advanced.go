package detect

import (
	"fmt"
	"math"

	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// Odin is the input-perturbation detector of Liang et al.: it rescales
// logits by a temperature and nudges the input against the gradient of
// the temperature-scaled NLL of the predicted class, which widens the
// confidence gap between in-distribution and drifted inputs. It needs a
// backward pass per inference — the cost that rules it out for Nazar's
// on-device budget (it roughly triples inference time).
type Odin struct {
	Net       *nn.Network
	Temp      float64 // temperature (reference default 1000)
	Epsilon   float64 // perturbation magnitude
	Threshold float64
}

// NewOdin returns an Odin detector over net with reference defaults.
func NewOdin(net *nn.Network, threshold float64) *Odin {
	return &Odin{Net: net, Temp: 1000, Epsilon: 0.02, Threshold: threshold}
}

// Score computes the Odin confidence of one input (not of precomputed
// logits: the method must touch the model twice).
func (o *Odin) Score(x []float64) float64 {
	// All per-call buffers come from the tensor workspace arena, so a
	// scoring loop over a stream of inputs is allocation-free.
	in := tensor.GetMatrix(1, len(x))
	defer tensor.PutMatrix(in)
	copy(in.Data, x)
	logits := o.Net.Forward(in, nn.Eval)
	pred, _ := tensor.ArgMax(logits.Row(0))

	// Gradient of the temperature-scaled NLL of the predicted class
	// w.r.t. the input.
	scaled := tensor.GetMatrix(1, logits.Cols)
	defer tensor.PutMatrix(scaled)
	for i, v := range logits.Row(0) {
		scaled.Data[i] = v / o.Temp
	}
	tensor.SoftmaxInPlace(scaled.Data)
	dlogits := tensor.GetMatrix(1, logits.Cols)
	defer tensor.PutMatrix(dlogits)
	for i, p := range scaled.Data {
		dlogits.Data[i] = p / o.Temp
	}
	dlogits.Data[pred] -= 1 / o.Temp
	o.Net.ZeroGrads()
	dx := o.Net.Backward(dlogits)

	// Perturb the input to increase confidence; re-run inference.
	pert := tensor.GetMatrix(1, len(x))
	defer tensor.PutMatrix(pert)
	for i := range x {
		pert.Data[i] = x[i] - o.Epsilon*sign(dx.Data[i])
	}
	logits2 := o.Net.Forward(pert, nn.Eval).Row(0)
	copy(scaled.Data, logits2)
	return tensor.Max(softmaxWithTemperatureInPlace(scaled.Data, o.Temp))
}

// Detect reports drift when the Odin score falls below the threshold.
func (o *Odin) Detect(x []float64) bool { return o.Score(x) < o.Threshold }

// Name identifies the detector.
func (o *Odin) Name() string { return fmt.Sprintf("odin(T=%g,eps=%g)", o.Temp, o.Epsilon) }

// GOdin is Generalized Odin: like Odin it perturbs the input, but it
// removes the need for an outlier dataset to tune the temperature by
// decomposing confidence into h/g, where g is a data-dependent scale
// fitted on clean data only. Here g is a logistic model of the penultimate
// feature norm fitted to clean-training MSP, the structural analogue of
// the paper's learned denominator.
type GOdin struct {
	Net       *nn.Network
	Epsilon   float64
	Threshold float64
	// g(x) = sigmoid(a·||h(x)|| + b), fitted on clean data.
	a, b float64
	// Reused per-call scratch.
	lbl     [1]int
	dlogits tensor.Matrix
}

// NewGOdin fits the g head on clean training inputs and returns the
// detector.
func NewGOdin(net *nn.Network, clean *tensor.Matrix, threshold float64) *GOdin {
	g := &GOdin{Net: net, Epsilon: 0.02, Threshold: threshold}
	// Fit a, b by least squares on (||h||, msp) pairs through a logit
	// link: logit(msp) ≈ a·norm + b.
	logits := net.Forward(clean, nn.Eval)
	hidden := net.Hidden()
	var sx, sy, sxx, sxy float64
	n := float64(clean.Rows)
	for i := 0; i < clean.Rows; i++ {
		norm := tensor.Norm2(hidden.Row(i))
		msp := tensor.Max(tensor.Softmax(logits.Row(i)))
		msp = math.Min(math.Max(msp, 1e-6), 1-1e-6)
		y := math.Log(msp / (1 - msp))
		sx += norm
		sy += y
		sxx += norm * norm
		sxy += norm * y
	}
	denom := n*sxx - sx*sx
	if math.Abs(denom) < 1e-12 {
		g.a, g.b = 0, sy/n
	} else {
		g.a = (n*sxy - sx*sy) / denom
		g.b = (sy - g.a*sx) / n
	}
	return g
}

// Score computes the decomposed confidence max_c h_c / g after an Odin
// style perturbation (no outlier data involved anywhere).
func (g *GOdin) Score(x []float64) float64 {
	in := tensor.GetMatrix(1, len(x))
	defer tensor.PutMatrix(in)
	copy(in.Data, x)
	logits := g.Net.Forward(in, nn.Eval)
	pred, _ := tensor.ArgMax(logits.Row(0))
	g.lbl[0] = pred
	_, dlogits := nn.CrossEntropyInto(&g.dlogits, logits, g.lbl[:])
	g.Net.ZeroGrads()
	dx := g.Net.Backward(dlogits)
	pert := tensor.GetMatrix(1, len(x))
	defer tensor.PutMatrix(pert)
	for i := range x {
		pert.Data[i] = x[i] - g.Epsilon*sign(dx.Data[i])
	}
	logits2 := g.Net.Forward(pert, nn.Eval)
	norm := tensor.Norm2(g.Net.Hidden().Row(0))
	gval := 1 / (1 + math.Exp(-(g.a*norm + g.b)))
	if gval < 1e-6 {
		gval = 1e-6
	}
	probs := tensor.SoftmaxTo(g.dlogits.Data, logits2.Row(0))
	return tensor.Max(probs) / gval
}

// Detect reports drift when the decomposed confidence is below threshold.
func (g *GOdin) Detect(x []float64) bool { return g.Score(x) < g.Threshold }

// Name identifies the detector.
func (g *GOdin) Name() string { return "godin" }

// KNN detects drift by the distance from an input's penultimate features
// to its k-th nearest neighbour among stored training features (deep
// nearest-neighbour OOD detection, Sun et al.) — a strong modern baseline
// that postdates the paper's Table 1. Like Mahalanobis it needs the
// training set (a "secondary dataset" in Table 1 terms) and a feature
// bank too large for phones, which is why it belongs in the cloud-side
// toolbox rather than on devices.
type KNN struct {
	Net       *nn.Network
	K         int
	Threshold float64 // drift when the k-NN distance exceeds this

	bank *tensor.Matrix // normalized training features
}

// NewKNN builds the detector's feature bank from training inputs.
func NewKNN(net *nn.Network, x *tensor.Matrix, k int, threshold float64) *KNN {
	if k < 1 {
		k = 10
	}
	net.Forward(x, nn.Eval)
	h := net.Hidden().Clone()
	for i := 0; i < h.Rows; i++ {
		normalizeRow(h.Row(i))
	}
	return &KNN{Net: net, K: k, Threshold: threshold, bank: h}
}

// Distance returns the Euclidean distance from x's normalized features to
// their k-th nearest bank entry.
func (d *KNN) Distance(x []float64) float64 {
	in := tensor.FromSlice(1, len(x), append([]float64(nil), x...))
	d.Net.Forward(in, nn.Eval)
	q := append([]float64(nil), d.Net.Hidden().Row(0)...)
	normalizeRow(q)

	k := d.K
	if k > d.bank.Rows {
		k = d.bank.Rows
	}
	// Maintain the k smallest squared distances in a simple max-on-top
	// array (k is small).
	best := make([]float64, 0, k)
	for i := 0; i < d.bank.Rows; i++ {
		row := d.bank.Row(i)
		var sq float64
		for j, v := range q {
			diff := v - row[j]
			sq += diff * diff
		}
		if len(best) < k {
			best = append(best, sq)
			if len(best) == k {
				sortFloats(best)
			}
			continue
		}
		if sq < best[k-1] {
			// Insert in order.
			pos := k - 1
			for pos > 0 && best[pos-1] > sq {
				best[pos] = best[pos-1]
				pos--
			}
			best[pos] = sq
		}
	}
	if len(best) == 0 {
		return math.Inf(1)
	}
	if len(best) < k {
		sortFloats(best)
	}
	return math.Sqrt(best[len(best)-1])
}

// Detect reports drift when the k-NN distance exceeds the threshold.
func (d *KNN) Detect(x []float64) bool { return d.Distance(x) > d.Threshold }

// Name identifies the detector.
func (d *KNN) Name() string { return fmt.Sprintf("knn(k=%d)", d.K) }

// normalizeRow scales v to unit L2 norm in place (zero vectors are left
// unchanged).
func normalizeRow(v []float64) {
	n := tensor.Norm2(v)
	if n > 1e-12 {
		for i := range v {
			v[i] /= n
		}
	}
}

// sortFloats is a tiny insertion sort (k is small).
func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
}

// Mahalanobis detects drift by the minimum class-conditional Mahalanobis
// distance of the penultimate features, with a shared (diagonal)
// covariance fitted on the training set — the secondary dataset Table 1
// charges it with.
type Mahalanobis struct {
	Net       *nn.Network
	Threshold float64 // drift when min distance exceeds this

	means  [][]float64 // per-class feature means
	invVar []float64   // shared diagonal precision
}

// NewMahalanobis fits class-conditional Gaussians on (x, labels).
func NewMahalanobis(net *nn.Network, x *tensor.Matrix, labels []int, classes int, threshold float64) *Mahalanobis {
	m := &Mahalanobis{Net: net, Threshold: threshold}
	net.Forward(x, nn.Eval)
	h := net.Hidden()
	dim := h.Cols
	m.means = make([][]float64, classes)
	counts := make([]int, classes)
	for c := range m.means {
		m.means[c] = make([]float64, dim)
	}
	for i := 0; i < h.Rows; i++ {
		c := labels[i]
		counts[c]++
		for j, v := range h.Row(i) {
			m.means[c][j] += v
		}
	}
	for c := range m.means {
		if counts[c] > 0 {
			for j := range m.means[c] {
				m.means[c][j] /= float64(counts[c])
			}
		}
	}
	variance := make([]float64, dim)
	for i := 0; i < h.Rows; i++ {
		mu := m.means[labels[i]]
		for j, v := range h.Row(i) {
			d := v - mu[j]
			variance[j] += d * d
		}
	}
	m.invVar = make([]float64, dim)
	for j := range variance {
		variance[j] /= float64(h.Rows)
		m.invVar[j] = 1 / (variance[j] + 1e-6)
	}
	return m
}

// Distance returns the minimum squared Mahalanobis distance of x's
// penultimate features to any class mean.
func (m *Mahalanobis) Distance(x []float64) float64 {
	in := tensor.FromSlice(1, len(x), append([]float64(nil), x...))
	m.Net.Forward(in, nn.Eval)
	h := m.Net.Hidden().Row(0)
	best := math.Inf(1)
	for _, mu := range m.means {
		var d float64
		for j, v := range h {
			diff := v - mu[j]
			d += diff * diff * m.invVar[j]
		}
		if d < best {
			best = d
		}
	}
	return best
}

// Detect reports drift when the nearest class is too far away.
func (m *Mahalanobis) Detect(x []float64) bool { return m.Distance(x) > m.Threshold }

// Name identifies the detector.
func (m *Mahalanobis) Name() string { return "mahalanobis" }
