package tensor

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func approxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func matricesEqual(t *testing.T, got, want *Matrix, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape %dx%d != %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if !approxEqual(got.Data[i], want.Data[i], tol) {
			t.Fatalf("element %d: got %v want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero data")
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Data[1*3+2] = 7.5
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At = %v", m.At(1, 2))
	}
	row := m.Row(1)
	row[0] = -1 // view semantics
	if m.At(1, 0) != -1 {
		t.Fatal("Row must be a view")
	}
}

func TestFromRowsAndClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Data[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMatMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	dst := New(2, 2)
	MatMul(dst, a, b)
	matricesEqual(t, dst, FromRows([][]float64{{19, 22}, {43, 50}}), 1e-12)
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRand(1, 2)
	a := New(5, 5)
	a.RandNormal(rng, 0, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Data[i*5+i] = 1
	}
	dst := New(5, 5)
	MatMul(dst, a, id)
	matricesEqual(t, dst, a, 1e-12)
}

// naiveMatMul is the reference triple loop used to validate the optimized
// kernels on random inputs.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Row(i)[j] = s
		}
	}
	return out
}

func TestMatMulMatchesNaiveLarge(t *testing.T) {
	rng := NewRand(3, 4)
	// Large enough to trigger the parallel path.
	a := New(70, 60)
	b := New(60, 50)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)
	dst := New(70, 50)
	MatMul(dst, a, b)
	matricesEqual(t, dst, naiveMatMul(a, b), 1e-9)
}

func TestMatMulATB(t *testing.T) {
	rng := NewRand(5, 6)
	a := New(9, 4)
	b := New(9, 7)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)
	dst := New(4, 7)
	MatMulATB(dst, a, b)
	matricesEqual(t, dst, naiveMatMul(a.transposed(), b), 1e-10)
}

// TestMatMulABT checks the a·bᵀ dot-product reference, the oracle the
// input gradient is held to, against the naive product over an explicit
// transpose.
func TestMatMulABT(t *testing.T) {
	rng := NewRand(7, 8)
	a := New(6, 5)
	b := New(8, 5)
	a.RandNormal(rng, 0, 1)
	b.RandNormal(rng, 0, 1)
	dst := New(6, 8)
	matMulABTRef(dst, a, b)
	matricesEqual(t, dst, naiveMatMul(a, b.transposed()), 1e-10)
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dim mismatch")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(2, 2))
}

func TestElementwiseOps(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	a.Add(b)
	matricesEqual(t, a, FromRows([][]float64{{11, 22}, {33, 44}}), 0)
	a.Scale(2)
	matricesEqual(t, a, FromRows([][]float64{{22, 44}, {66, 88}}), 0)
	a.AddScaled(b, 0.1)
	matricesEqual(t, a, FromRows([][]float64{{23, 46}, {69, 92}}), 1e-12)
	a.Fill(3)
	if a.At(1, 1) != 3 {
		t.Fatal("Fill failed")
	}
	a.Zero()
	if a.At(1, 1) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.transposed()
	matricesEqual(t, at, FromRows([][]float64{{1, 4}, {2, 5}, {3, 6}}), 0)
}

func TestAddRowVectorAndColStats(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	m.addRowVector([]float64{10, 20})
	matricesEqual(t, m, FromRows([][]float64{{11, 22}, {13, 24}, {15, 26}}), 0)
	sums := m.ColSumsInto(make([]float64, 2))
	if sums[0] != 39 || sums[1] != 72 {
		t.Fatalf("ColSumsInto = %v", sums)
	}
	means := m.ColMeansInto(make([]float64, 2))
	if means[0] != 13 || means[1] != 24 {
		t.Fatalf("ColMeansInto = %v", means)
	}
	vars := m.ColVariancesInto(make([]float64, 2), means)
	want := 8.0 / 3 // var of {11,13,15}
	if !approxEqual(vars[0], want, 1e-12) {
		t.Fatalf("ColVariancesInto = %v, want %v", vars[0], want)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	s := Softmax(v)
	var sum float64
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatal("softmax must be monotone in logits")
		}
	}
	for _, x := range s {
		sum += x
	}
	if !approxEqual(sum, 1, 1e-12) {
		t.Fatalf("softmax sum = %v", sum)
	}
}

func TestSoftmaxStability(t *testing.T) {
	s := Softmax([]float64{1000, 1000, 1000})
	for _, x := range s {
		if !approxEqual(x, 1.0/3, 1e-12) {
			t.Fatalf("unstable softmax: %v", s)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	got := LogSumExp([]float64{0, 0})
	if !approxEqual(got, math.Log(2), 1e-12) {
		t.Fatalf("LogSumExp = %v", got)
	}
	// Stability with huge values.
	got = LogSumExp([]float64{1e4, 1e4})
	if !approxEqual(got, 1e4+math.Log(2), 1e-9) {
		t.Fatalf("LogSumExp huge = %v", got)
	}
}

func TestArgMaxDotNorm(t *testing.T) {
	i, v := ArgMax([]float64{1, 5, 3, 5})
	if i != 1 || v != 5 {
		t.Fatalf("ArgMax = %d,%v", i, v)
	}
	if Max([]float64{-3, -1, -2}) != -1 {
		t.Fatal("Max failed")
	}
	if !approxEqual(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2 failed")
	}
}

func TestRandDeterminism(t *testing.T) {
	a := New(4, 4)
	b := New(4, 4)
	a.RandNormal(NewRand(11, 12), 0, 1)
	b.RandNormal(NewRand(11, 12), 0, 1)
	matricesEqual(t, a, b, 0)
}

func TestRandUnitVector(t *testing.T) {
	rng := NewRand(9, 9)
	for i := 0; i < 10; i++ {
		v := RandUnitVector(rng, 16)
		if !approxEqual(Norm2(v), 1, 1e-9) {
			t.Fatalf("not unit: %v", Norm2(v))
		}
	}
}

func TestHeInitScale(t *testing.T) {
	m := New(200, 200)
	m.HeInit(NewRand(1, 1), 100)
	var sq float64
	for _, v := range m.Data {
		sq += v * v
	}
	got := sq / float64(len(m.Data))
	if !approxEqual(got, 0.02, 0.002) { // 2/fanIn = 0.02
		t.Fatalf("He variance = %v, want ~0.02", got)
	}
}

// Property: softmax is invariant to adding a constant to all logits.
func TestQuickSoftmaxShiftInvariance(t *testing.T) {
	f := func(seed uint64, shiftRaw int8) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		v := make([]float64, 5)
		for i := range v {
			v[i] = rng.NormFloat64() * 3
		}
		shift := float64(shiftRaw) / 8
		shifted := make([]float64, len(v))
		for i := range v {
			shifted[i] = v[i] + shift
		}
		a, b := Softmax(v), Softmax(shifted)
		for i := range a {
			if !approxEqual(a[i], b[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random small matrices.
func TestQuickMatMulTransposeIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		a := New(3, 4)
		b := New(4, 2)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		ab := New(3, 2)
		MatMul(ab, a, b)
		btat := New(2, 3)
		MatMul(btat, b.transposed(), a.transposed())
		abt := ab.transposed()
		for i := range abt.Data {
			if !approxEqual(abt.Data[i], btat.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := NewRand(1, 2)
	x := New(128, 128)
	y := New(128, 128)
	x.RandNormal(rng, 0, 1)
	y.RandNormal(rng, 0, 1)
	dst := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}
