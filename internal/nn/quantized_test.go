package nn

import (
	"math"
	"sort"
	"testing"

	"nazar/internal/tensor"
)

// quantTestNet builds a classifier with randomized BN state (as if it
// had been trained/adapted) so quantization tests exercise non-trivial
// folds.
func quantTestNet(seed uint64, blocks, inDim, width, classes int) *Network {
	rng := tensor.NewRand(seed, 7)
	var layers []Layer
	in := inDim
	for i := 0; i < blocks; i++ {
		layers = append(layers, NewDense(in, width, rng), NewBatchNorm(width), NewReLU())
		in = width
	}
	layers = append(layers, NewDense(in, classes, rng))
	net := NewNetwork(layers...)
	for _, bn := range net.BatchNorms() {
		g, b := bn.Gamma(), bn.Beta()
		for j := range g {
			g[j] = 0.5 + rng.Float64()
			b[j] = rng.Float64() - 0.5
			bn.RunMean[j] = rng.Float64() - 0.5
			bn.RunVar[j] = 0.5 + 1.5*rng.Float64()
		}
	}
	return net
}

// TestQuantizedForwardMatchesRef pins the packed int8 model pass — the
// batch and single-example paths — bit-identical to the naive reference
// kernel walk, saturation counts included, at pool widths 1 and 8.
func TestQuantizedForwardMatchesRef(t *testing.T) {
	for _, width := range []int{1, 8} {
		tensor.SetMaxWorkers(width)
		shapes := []struct{ blocks, in, w, classes, batch int }{
			{1, 4, 6, 3, 5},
			{2, 16, 24, 8, 1},
			{3, 20, 32, 10, 17},
		}
		for _, s := range shapes {
			net := quantTestNet(uint64(s.blocks)*31+uint64(width), s.blocks, s.in, s.w, s.classes)
			cal := randBatch(99, 32, s.in)
			qn, err := QuantizeInt8(net, cal)
			if err != nil {
				t.Fatal(err)
			}
			x := randBatch(uint64(s.batch), s.batch, s.in)
			got := qn.Logits(x)
			satGot := qn.Saturations()
			want, satWant := qn.refLogits(x)
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("width %d %+v: shape mismatch", width, s)
			}
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("width %d %+v: logit %d diverges: %v vs %v", width, s, i, got.Data[i], want.Data[i])
				}
			}
			if satGot != satWant {
				t.Fatalf("width %d %+v: saturation count %d, reference %d", width, s, satGot, satWant)
			}
			// Single-example path over each row must agree with the batch.
			for i := 0; i < x.Rows; i++ {
				row := append([]float64(nil), x.Row(i)...)
				one := append([]float64(nil), qn.LogitsOne(row)...)
				for j, v := range want.Row(i) {
					if math.Float64bits(one[j]) != math.Float64bits(v) {
						t.Fatalf("width %d %+v: LogitsOne row %d diverges at %d", width, s, i, j)
					}
				}
			}
		}
		tensor.SetMaxWorkers(0)
	}
}

// TestQuantizedWidthDeterminism: the quantized model pass must produce
// byte-identical logits and saturation counts at pool widths 1 and 8.
func TestQuantizedWidthDeterminism(t *testing.T) {
	net := quantTestNet(5, 3, 24, 48, 10)
	cal := randBatch(6, 64, 24)
	x := randBatch(7, 33, 24)

	run := func(width int) ([]float64, int64) {
		tensor.SetMaxWorkers(width)
		defer tensor.SetMaxWorkers(0)
		qn, err := QuantizeInt8(net, cal)
		if err != nil {
			t.Fatal(err)
		}
		out := append([]float64(nil), qn.Logits(x).Data...)
		return out, qn.Saturations()
	}
	l1, s1 := run(1)
	l8, s8 := run(8)
	for i := range l1 {
		if math.Float64bits(l1[i]) != math.Float64bits(l8[i]) {
			t.Fatalf("width 1 vs 8 logits diverge at %d: %v vs %v", i, l1[i], l8[i])
		}
	}
	if s1 != s8 {
		t.Fatalf("width 1 vs 8 saturation counts diverge: %d vs %d", s1, s8)
	}
}

// TestQuantizedCloseToFloat bounds the int8 path against the float
// network it was built from: logits stay within a few percent of the
// float activations' magnitude, and predictions agree on the vast
// majority of examples.
func TestQuantizedCloseToFloat(t *testing.T) {
	net := quantTestNet(11, 2, 16, 32, 8)
	cal := randBatch(12, 64, 16)
	qn, err := QuantizeInt8(net, cal)
	if err != nil {
		t.Fatal(err)
	}
	x := randBatch(13, 200, 16)
	fl := net.Logits(x)
	ql := qn.Logits(x)

	var maxAbs float64
	for _, v := range fl.Data {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	// Quantization error is not uniform: examples inside the calibrated
	// activation range land within a couple percent, while tail examples
	// beyond the 64-sample calibration max clamp their activations and
	// drift further — so the bounds are distribution-shaped: a tight
	// bulk, a loose tail.
	errs := make([]float64, len(fl.Data))
	var mean float64
	for i := range fl.Data {
		errs[i] = math.Abs(fl.Data[i]-ql.Data[i]) / (1 + maxAbs)
		mean += errs[i]
	}
	mean /= float64(len(errs))
	sorted := append([]float64(nil), errs...)
	sort.Float64s(sorted)
	p95 := sorted[len(sorted)*95/100]
	worst := sorted[len(sorted)-1]
	if mean > 0.02 {
		t.Fatalf("mean relative logit error %v, want ≤ 2%%", mean)
	}
	if p95 > 0.08 {
		t.Fatalf("95th-percentile relative logit error %v, want ≤ 8%%", p95)
	}
	if worst > 0.35 {
		t.Fatalf("worst relative logit error %v, want ≤ 35%%", worst)
	}
	agree := 0
	fp, qp := net.Predict(x), qn.Predict(x)
	for i := range fp {
		if fp[i] == qp[i] {
			agree++
		}
	}
	if agree < 190 {
		t.Fatalf("only %d/200 predictions agree with float", agree)
	}
}

// TestQuantizeInt8Errors pins the structural validation.
func TestQuantizeInt8Errors(t *testing.T) {
	rng := tensor.NewRand(21, 1)
	cal := randBatch(22, 4, 8)

	if _, err := QuantizeInt8(NewNetwork(NewReLU()), cal); err == nil {
		t.Fatal("non-Dense leading layer must error")
	}
	if _, err := QuantizeInt8(NewNetwork(NewDense(8, 4, rng), NewReLU()), cal); err == nil {
		t.Fatal("final ReLU block must error")
	}
	if _, err := QuantizeInt8(NewNetwork(), cal); err == nil {
		t.Fatal("empty network must error")
	}
	net := NewNetwork(NewDense(8, 4, rng))
	if _, err := QuantizeInt8(net, nil); err == nil {
		t.Fatal("nil calibration batch must error")
	}
	if _, err := QuantizeInt8(net, tensor.New(0, 8)); err == nil {
		t.Fatal("empty calibration batch must error")
	}
	if _, err := QuantizeInt8(net, randBatch(23, 4, 5)); err == nil {
		t.Fatal("calibration dim mismatch must error")
	}
	bad := NewNetwork(NewDense(8, 4, rng), NewBatchNorm(5))
	if _, err := QuantizeInt8(bad, cal); err == nil {
		t.Fatal("BN dim mismatch must error")
	}
}

// TestQuantizedLogitsOneAllocs pins the serving hot path: once warm,
// the int8 single-example pass performs zero allocations.
func TestQuantizedLogitsOneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under -race; steady state unobservable")
	}
	tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(0)

	net := quantTestNet(41, 3, 16, 32, 8)
	cal := randBatch(42, 32, 16)
	qn, err := QuantizeInt8(net, cal)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = 0.1 * float64(i%7)
	}
	qn.LogitsOne(x) // warm scratch
	if n := testing.AllocsPerRun(50, func() {
		qn.LogitsOne(x)
	}); n > 0.5 {
		t.Fatalf("steady-state quantized LogitsOne allocates %v per run, want 0", n)
	}
}

// TestQuantizedSizeBytesTable hand-checks the size accounting: packed
// int8 weights, float bias vectors counted separately, per-channel
// scales, and full-precision BN state.
func TestQuantizedSizeBytesTable(t *testing.T) {
	rng := tensor.NewRand(51, 1)
	cases := []struct {
		name string
		net  *Network
		bits int
		want int
	}{
		{
			// 4×3 weights at 8 bits = 12 bytes; bias 3 floats = 24;
			// scales 3 floats = 24.
			name: "single dense 8-bit",
			net:  NewNetwork(NewDense(4, 3, rng)),
			bits: 8,
			want: 12 + 24 + 24,
		},
		{
			// 4×3 weights at 4 bits = 6 bytes; bias and scales as above.
			name: "single dense 4-bit",
			net:  NewNetwork(NewDense(4, 3, rng)),
			bits: 4,
			want: 6 + 24 + 24,
		},
		{
			// BN-only: no weights to pack, γ/β/mean/var all float.
			name: "bn only",
			net:  NewNetwork(NewBatchNorm(5)),
			bits: 8,
			want: 4 * 5 * 8,
		},
		{
			// No parameters at all.
			name: "relu only",
			net:  NewNetwork(NewReLU()),
			bits: 8,
			want: 0,
		},
		{
			// Dense(2→4) + BN(4): weights 8 bytes, bias 32, scales 32,
			// BN 4·4·8 = 128.
			name: "dense+bn",
			net:  NewNetwork(NewDense(2, 4, rng), NewBatchNorm(4)),
			bits: 8,
			want: 8 + 32 + 32 + 128,
		},
	}
	for _, c := range cases {
		if got := QuantizedSizeBytes(c.net, c.bits); got != c.want {
			t.Errorf("%s: QuantizedSizeBytes = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestQuantizedNetworkSizeBytes checks the serving-footprint accounting
// of the true int8 form: codes + weight scales + fold vectors.
func TestQuantizedNetworkSizeBytes(t *testing.T) {
	net := quantTestNet(61, 1, 4, 6, 3)
	cal := randBatch(62, 16, 4)
	qn, err := QuantizeInt8(net, cal)
	if err != nil {
		t.Fatal(err)
	}
	// Block 1: 4×6 codes + 6 scales + 6 Mul + 6 FBias.
	// Final:   6×3 codes + 3 scales + 3 Mul + 3 FBias.
	want := (4*6 + 8*6 + 8*12) + (6*3 + 8*3 + 8*6)
	if got := qn.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
	if full := net.SizeBytes(); qn.SizeBytes() >= full {
		t.Fatalf("quantized form (%d) not smaller than float form (%d)", qn.SizeBytes(), full)
	}
}

// refLogits is the differential oracle: the same walk with each layer
// computed by the naive loops below and fresh buffers. It must match
// Logits bit-identically, including the saturation count (pinned by the
// fuzz and differential tests).
func (q *QuantizedNetwork) refLogits(x *tensor.Matrix) (*tensor.Matrix, int64) {
	m := x.Rows
	cur := make([]int8, m*q.InDim)
	sat := int64(tensor.QuantizeI8VecTo(cur, x.Data, q.Layers[0].InScale))
	for _, l := range q.Layers {
		acc := refI8Acc(cur, m, l.W)
		if l.Final {
			out := tensor.New(m, l.W.Cols)
			for i, a := range acc {
				j := i % l.W.Cols
				out.Data[i] = float64(a)*l.Mul[j] + l.FBias[j]
			}
			return out, sat
		}
		nxt := make([]int8, len(acc))
		for i, a := range acc {
			c, s := refRequant(a, l.Mul[i%l.W.Cols], l.FBias[i%l.W.Cols], l.ReLU)
			nxt[i] = c
			sat += int64(s)
		}
		cur = nxt
	}
	panic("nn: quantized network has no final layer")
}

// refI8Acc is a·w over the raw codes (a is m×w.Rows), one int32
// accumulator per output, summed in k order.
func refI8Acc(a []int8, m int, w *tensor.I8Matrix) []int32 {
	k, n := w.Rows, w.Cols
	acc := make([]int32, m*n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := int32(a[i*k+p])
			for j := 0; j < n; j++ {
				acc[i*n+j] += av * int32(w.Data[p*n+j])
			}
		}
	}
	return acc
}

// refRequant is the hidden layers' epilogue for one output: round
// acc·mul + fbias half to even, clamp to [-127, 127] (to [0, 127] under
// ReLU), and report a saturation when the rounded value lay outside
// ±127 — a ReLU zeroing is not one.
func refRequant(acc int32, mul, fbias float64, relu bool) (int8, int) {
	const shift = 3 << 51 // 1.5·2^52: adding it rounds half to even
	t := float64(acc)*mul + fbias + shift
	c := int32(uint32(math.Float64bits(t)))
	sat := 0
	if c > 127 || (!relu && c < -127) {
		sat = 1
	}
	lo := int32(-127)
	if relu {
		lo = 0
	}
	return int8(min(max(c, lo), 127)), sat
}
