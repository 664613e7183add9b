package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// kernelShapes are the differential-test shapes: degenerate vectors,
// shapes straddling the blocked-kernel gates, sizes not divisible by
// the 4-wide quads, row lengths reaching every exit of the vector body
// (8-wide, 4-wide and scalar: n mod 8 of 0 through 7), and large
// parallel-path shapes.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 17, 1},
	{1, 64, 1},
	{17, 1, 9},
	{1, 33, 129}, // 1×N row through the blocked path
	{129, 33, 1}, // N×1 column: dst rows shorter than blockedMinN
	{3, 5, 7},
	{7, 8, 8}, // exactly at the blocked gates
	{8, 7, 9}, // k below the gate
	{9, 9, 9},
	{13, 21, 34},
	{31, 17, 129},
	{64, 64, 64},
	{70, 60, 50},
	{65, 129, 67}, // odd sizes above the parallel threshold
	{128, 96, 33},
	{9, 12, 12},  // one 8-wide step, one 4-wide step
	{11, 17, 30}, // 8-wide, 4-wide, two scalar
	{5, 40, 13},  // 8-wide, 4-wide, one scalar
	{3, 9, 15},   // 8-wide, 4-wide, three scalar
	{64, 96, 96}, // the adaptation shape
}

// fillKernelTest populates m with a mix of normal values and exact
// zeros so the zero-skip fast paths are exercised.
func fillKernelTest(m *Matrix, rng *rand.Rand) {
	for i := range m.Data {
		switch rng.IntN(8) {
		case 0:
			m.Data[i] = 0
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
}

// matricesBitIdentical asserts exact (bit-level) equality — the
// contract between the blocked kernels and the reference loops.
func matricesBitIdentical(t *testing.T, ctx string, got, want *Matrix) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d != %dx%d", ctx, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d: got %v (%#x) want %v (%#x)",
				ctx, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// atWidths runs f at pool width 1 (fully sequential) and at a wide
// setting, restoring the default afterwards.
func atWidths(t *testing.T, f func(t *testing.T, workers int)) {
	t.Helper()
	for _, w := range []int{1, 8} {
		SetMaxWorkers(w)
		f(t, w)
	}
	SetMaxWorkers(0)
}

// rowBodies runs f once per quadRow body the host can run — the Go loop,
// then the AVX body where the host has it — through the test-only switch
// useAVX, restoring the start-up choice afterwards.
func rowBodies(t testing.TB, f func(body string)) {
	t.Helper()
	host := useAVX
	defer func() { useAVX = host }()
	useAVX = false
	f("go")
	if host {
		useAVX = true
		f("avx")
	}
}

// fillFuzz populates m like fillKernelTest plus signed zeros and, when
// inf is set, infinities. NaN inputs are left out: which NaN payload a
// sum of two NaNs keeps depends on operand order, which the compiler may
// commute, so the bodies are only required to agree on the NaNs they
// generate (0·Inf, Inf−Inf), not on ones they are handed.
func fillFuzz(m *Matrix, rng *rand.Rand, inf bool) {
	specials := []float64{0, 0, math.Copysign(0, -1)}
	if inf {
		specials = append(specials, math.Inf(1), math.Inf(-1))
	}
	for i := range m.Data {
		if r := rng.IntN(16); r < len(specials) {
			m.Data[i] = specials[r]
		} else {
			m.Data[i] = rng.NormFloat64()
		}
	}
}

// TestMatMulKernelsMatchReferenceBitIdentical is the differential suite
// of the kernels: every optimized orientation must agree bit-for-bit
// with its reference loop on every shape, sequentially and under the
// parallel fan-out, with either row body. The a·bᵀ orientation is MatMul
// over a transposed copy of b, against the dot-product reference.
func TestMatMulKernelsMatchReferenceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xB10C, 1))
	for _, sh := range kernelShapes {
		a := New(sh.m, sh.k)
		b := New(sh.k, sh.n)
		bt := New(sh.n, sh.k) // for ABT: dst = a·btᵀ
		at := New(sh.k, sh.m) // for ATB: dst = atᵀ·b2
		b2 := New(sh.k, sh.n) // shares at's row count
		fillKernelTest(a, rng)
		fillKernelTest(b, rng)
		fillKernelTest(bt, rng)
		fillKernelTest(at, rng)
		fillKernelTest(b2, rng)
		bias := make([]float64, sh.n)
		for j := range bias {
			bias[j] = rng.NormFloat64()
		}

		rowBodies(t, func(body string) {
			atWidths(t, func(t *testing.T, w int) {
				ctx := fmt.Sprintf("%dx%dx%d@w%d/%s", sh.m, sh.k, sh.n, w, body)

				want := New(sh.m, sh.n)
				matMulRef(want, a, b)
				got := New(sh.m, sh.n)
				MatMul(got, a, b)
				matricesBitIdentical(t, "MatMul "+ctx, got, want)

				// MatMulBias == MatMul + addRowVector, bit-identical.
				want.addRowVector(bias)
				MatMulBias(got, a, b, bias)
				matricesBitIdentical(t, "MatMulBias "+ctx, got, want)

				// MatMulBiasReLU == clamp of the above, with the matching
				// mask.
				mask := make([]bool, sh.m*sh.n)
				MatMulBiasReLU(got, a, b, bias, mask)
				for i := range want.Data {
					pos := want.Data[i] > 0
					if pos != mask[i] {
						t.Fatalf("MatMulBiasReLU %s: mask[%d]=%v want %v", ctx, i, mask[i], pos)
					}
					r := want.Data[i]
					if !pos {
						r = 0
					}
					if math.Float64bits(got.Data[i]) != math.Float64bits(r) {
						t.Fatalf("MatMulBiasReLU %s: element %d: got %v want %v", ctx, i, got.Data[i], r)
					}
				}

				wantATB := New(sh.m, sh.n)
				matMulATBRef(wantATB, at, b2)
				gotATB := New(sh.m, sh.n)
				MatMulATB(gotATB, at, b2)
				matricesBitIdentical(t, "MatMulATB "+ctx, gotATB, wantATB)

				wantABT := New(sh.m, sh.n)
				matMulABTRef(wantABT, a, bt)
				gotABT := New(sh.m, sh.n)
				MatMul(gotABT, a, bt.transposed())
				matricesBitIdentical(t, "MatMul(a, btᵀ) "+ctx, gotABT, wantABT)
			})
		})
	}
}

// TestMatMulATBParallelMatchesSequential pins the satellite fix: the
// weight-gradient orientation now fans out over output rows above the
// work threshold and must produce identical bits at any pool width.
func TestMatMulATBParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	a := New(128, 96) // 128*96*64 comfortably above parallelThreshold
	b := New(128, 64)
	fillKernelTest(a, rng)
	fillKernelTest(b, rng)

	SetMaxWorkers(1)
	seq := New(96, 64)
	MatMulATB(seq, a, b)
	SetMaxWorkers(8)
	par := New(96, 64)
	MatMulATB(par, a, b)
	SetMaxWorkers(0)
	matricesBitIdentical(t, "ATB seq vs par", par, seq)

	if stats := ReadPoolStats(); stats.ParallelCalls == 0 {
		t.Fatal("expected the wide run to take the parallel path")
	}
}

// FuzzMatMulKernels cross-checks the blocked kernels against the
// reference loops on fuzzer-chosen shapes and data, including signed
// zeros (the skip fast paths) and infinities, at both pool widths and
// with either row body. Infinities go into the broadcast operand only
// for the reference comparison: a blocked quad with one zero scalar
// still multiplies that zero into its row (0·Inf = NaN) where the
// reference skips it, which the contract allows for finite inputs only.
// The two row bodies must agree everywhere, so a second product with
// infinities in both operands compares them with each other.
func FuzzMatMulKernels(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(5), uint8(7))
	f.Add(uint64(2), uint8(1), uint8(40), uint8(1))
	f.Add(uint64(3), uint8(16), uint8(16), uint8(16))
	f.Add(uint64(4), uint8(65), uint8(9), uint8(33))
	f.Add(uint64(5), uint8(9), uint8(12), uint8(29))
	f.Fuzz(func(t *testing.T, seed uint64, mr, kr, nr uint8) {
		m, k, n := int(mr%64)+1, int(kr%64)+1, int(nr%64)+1
		rng := rand.New(rand.NewPCG(seed, 99))
		a := New(m, k)
		b := New(k, n)
		bt := New(n, k)
		at := New(k, m)
		binf := New(k, n)
		fillFuzz(a, rng, true)
		fillFuzz(b, rng, false)
		fillFuzz(bt, rng, false)
		fillFuzz(at, rng, true)
		fillFuzz(binf, rng, true)
		btT := bt.transposed()

		check := func(op, ctx string, got, want *Matrix) {
			t.Helper()
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s %dx%dx%d %s diverges at %d: %v vs %v", op, m, k, n, ctx, i, got.Data[i], want.Data[i])
				}
			}
		}
		want := New(m, n)
		matMulRef(want, a, b)
		wantATB := New(m, n)
		matMulATBRef(wantATB, at, b)
		wantABT := New(m, n)
		matMulABTRef(wantABT, a, bt)
		var goInf *Matrix
		rowBodies(t, func(body string) {
			for _, w := range []int{1, 8} {
				SetMaxWorkers(w)
				ctx := fmt.Sprintf("@w%d/%s", w, body)
				got := New(m, n)
				MatMul(got, a, b)
				check("MatMul", ctx, got, want)
				MatMulATB(got, at, b)
				check("MatMulATB", ctx, got, wantATB)
				MatMul(got, a, btT)
				check("MatMul(a, btᵀ)", ctx, got, wantABT)
				MatMul(got, a, binf)
				if goInf == nil {
					goInf = got
				} else {
					check("MatMul with infinities, body vs go", ctx, got, goInf)
				}
			}
		})
		SetMaxWorkers(0)
	})
}

// TestMatMulSteadyStateAllocs: the kernels themselves must not allocate
// when the destination is pre-shaped (width 1: the parallel fan-out
// necessarily allocates its goroutine bookkeeping).
func TestMatMulSteadyStateAllocs(t *testing.T) {
	SetMaxWorkers(1)
	defer SetMaxWorkers(0)
	rng := rand.New(rand.NewPCG(5, 5))
	a := New(64, 48)
	b := New(48, 32)
	dy := New(64, 32) // pairs with a for the ATB (weight-gradient) shape
	fillKernelTest(a, rng)
	fillKernelTest(b, rng)
	fillKernelTest(dy, rng)
	dst := New(64, 32)
	atb := New(48, 32)
	bias := make([]float64, 32)
	mask := make([]bool, 64*32)

	if n := testing.AllocsPerRun(20, func() {
		MatMul(dst, a, b)
		MatMulBias(dst, a, b, bias)
		MatMulBiasReLU(dst, a, b, bias, mask)
		MatMulATB(atb, a, dy)
	}); n != 0 {
		t.Fatalf("matmul kernels allocate %v per run, want 0", n)
	}
}

// epilogueSpecials are the values the bias/ReLU epilogue's branch used
// to decide on: signed zeros, NaN, infinities, the smallest subnormals
// and normals of both signs.
var epilogueSpecials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, 1e-300, -1e-300,
}

// sameFloat reports whether a and b hold the same bits, or are both NaN.
// When two NaNs meet in an add, the hardware returns the payload of
// whichever operand the compiler placed first, and Go leaves that order
// to the compiler, so the epilogue references compare any NaN with any
// NaN and every other value bit for bit.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// TestKeep pins Keep against the branch it replaces on every special
// value: v itself where keep is set, +0 (never -0) everywhere else, and
// Keep(v, v > 0) is the clamp that maps negatives, -0 and NaN to +0.
func TestKeep(t *testing.T) {
	for _, v := range append(slices.Clone(epilogueSpecials), 1, -1, math.MaxFloat64, -math.MaxFloat64) {
		if got := Keep(v, true); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("Keep(%v, true) = %#x, want %#x", v, math.Float64bits(got), math.Float64bits(v))
		}
		if got := Keep(v, false); math.Float64bits(got) != 0 {
			t.Fatalf("Keep(%v, false) = %#x, want +0", v, math.Float64bits(got))
		}
		want := 0.0
		if v > 0 {
			want = v
		}
		if got := Keep(v, v > 0); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Keep(%v, %v > 0) = %v, want %v", v, v, got, want)
		}
	}
}

// TestMatMulBiasEpilogueMatchesRef: MatMulBias and MatMulBiasReLU (with
// and without a mask) match the branchy epilogue reference bit for bit
// (NaN for NaN, see sameFloat), masks included, with special values in
// the bias and in both operands, on both sides of the blocked-kernel
// gates, at both pool widths.
func TestMatMulBiasEpilogueMatchesRef(t *testing.T) {
	defer SetMaxWorkers(0)
	for _, sh := range []struct{ m, k, n int }{{1, 3, 5}, {7, 9, 11}, {64, 96, 96}, {33, 8, 70}} {
		rng := rand.New(rand.NewPCG(uint64(sh.m), uint64(sh.n)))
		a, b := New(sh.m, sh.k), New(sh.k, sh.n)
		bias := make([]float64, sh.n)
		for _, d := range [][]float64{a.Data, b.Data, bias} {
			for i := range d {
				if r := rng.IntN(2 * len(epilogueSpecials)); r < len(epilogueSpecials) {
					d[i] = epilogueSpecials[r]
				} else {
					d[i] = rng.NormFloat64()
				}
			}
		}
		// Row 0 of the product is +0 throughout, so its pre-activations
		// are exactly the bias: +0 and -0 in the first two columns.
		clear(a.Row(0))
		bias[0], bias[1] = 0, math.Copysign(0, -1)
		for _, w := range []int{1, 8} {
			SetMaxWorkers(w)
			for _, mode := range []struct {
				relu, mask bool
			}{{false, false}, {true, false}, {true, true}} {
				ctx := fmt.Sprintf("%dx%dx%d @w%d relu=%v mask=%v", sh.m, sh.k, sh.n, w, mode.relu, mode.mask)
				got, want := New(sh.m, sh.n), New(sh.m, sh.n)
				var gotMask, wantMask []bool
				if mode.mask {
					gotMask, wantMask = make([]bool, sh.m*sh.n), make([]bool, sh.m*sh.n)
				}
				if mode.relu {
					MatMulBiasReLU(got, a, b, bias, gotMask)
				} else {
					MatMulBias(got, a, b, bias)
				}
				matMulBiasRef(want, a, b, bias, mode.relu, wantMask)
				for i, v := range want.Data {
					if !sameFloat(got.Data[i], v) {
						t.Fatalf("%s: element %d: got %v (%#x) want %v (%#x)", ctx, i,
							got.Data[i], math.Float64bits(got.Data[i]), v, math.Float64bits(v))
					}
				}
				if !slices.Equal(gotMask, wantMask) {
					t.Fatalf("%s: mask differs from the reference", ctx)
				}
			}
		}
	}
}
