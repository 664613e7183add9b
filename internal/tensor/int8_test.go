package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

// randI8Codes fills a deterministic pseudo-random code slice in
// [-127, 127].
func randI8Codes(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.IntN(255) - 127)
	}
	return out
}

func randI8Matrix(rng *rand.Rand, k, n int) *I8Matrix {
	q := NewI8Matrix(k, n)
	copy(q.Data, randI8Codes(rng, k*n))
	for j := range q.Scales {
		q.Scales[j] = 0.001 + rng.Float64()*0.05
	}
	return q
}

// i8Shapes covers the dispatch boundaries: below the blocked gates,
// odd inner/outer dims, the k > i8ChunkK multi-chunk path, and
// batch sizes on both sides of the parallel threshold.
var i8Shapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 4},  // below blockedMinK
	{2, 33, 6}, // below blockedMinN
	{1, 8, 8},  // exactly at the gates
	{3, 17, 9}, // odd n: tail column
	{1, 128, 128},
	{5, 64, 33},
	{2, 1500, 12}, // k > i8ChunkK: multi-chunk offset correction
	{64, 96, 96},  // above parallelThreshold
	{9, 200, 31},
}

// TestI8MatMulI32Differential pins the packed dual-lane kernel
// bit-identical to the naive int32 reference loop across shapes and
// worker widths.
func TestI8MatMulI32Differential(t *testing.T) {
	for _, width := range []int{1, 8} {
		SetMaxWorkers(width)
		for _, s := range i8Shapes {
			rng := NewRand(uint64(s.m*1000003+s.k*1009+s.n), 0x11)
			w := randI8Matrix(rng, s.k, s.n)
			a := randI8Codes(rng, s.m*s.k)
			got := make([]int32, s.m*s.n)
			want := make([]int32, s.m*s.n)
			i8MatMulI32(got, a, s.m, w)
			i8MatMulI32Ref(want, a, s.m, w)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("width %d shape %dx%dx%d: acc[%d] = %d, ref %d",
						width, s.m, s.k, s.n, i, got[i], want[i])
				}
			}
		}
	}
	SetMaxWorkers(0)
}

// TestI8MatMulBiasReLUDifferential pins the fused requantize kernel —
// codes and saturation count — against its reference oracle.
func TestI8MatMulBiasReLUDifferential(t *testing.T) {
	for _, width := range []int{1, 8} {
		SetMaxWorkers(width)
		for _, s := range i8Shapes {
			for _, relu := range []bool{false, true} {
				rng := NewRand(uint64(s.m*31+s.k*7+s.n*3), 0x12)
				w := randI8Matrix(rng, s.k, s.n)
				a := randI8Codes(rng, s.m*s.k)
				mul := make([]float64, s.n)
				fbias := make([]float64, s.n)
				for j := range mul {
					// Scale so outputs straddle the clamp: some rows
					// must saturate for the count comparison to bite.
					mul[j] = (0.5 + rng.Float64()) / float64(s.k)
					fbias[j] = rng.NormFloat64() * 20
				}
				got := make([]int8, s.m*s.n)
				want := make([]int8, s.m*s.n)
				gotSat := I8MatMulBiasReLU(got, a, s.m, w, mul, fbias, relu)
				wantSat := i8MatMulBiasReLURef(want, a, s.m, w, mul, fbias, relu)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("width %d shape %dx%dx%d relu=%v: code[%d] = %d, ref %d",
							width, s.m, s.k, s.n, relu, i, got[i], want[i])
					}
				}
				if gotSat != wantSat {
					t.Fatalf("width %d shape %dx%dx%d relu=%v: sat %d, ref %d",
						width, s.m, s.k, s.n, relu, gotSat, wantSat)
				}
			}
		}
	}
	SetMaxWorkers(0)
}

// TestI8MatMulBiasFloatDifferential pins the dequantizing final-layer
// kernel against its reference oracle (bit-identical: the accumulators
// are exact and the epilogue arithmetic is the same expression).
func TestI8MatMulBiasFloatDifferential(t *testing.T) {
	for _, s := range i8Shapes {
		rng := NewRand(uint64(s.m*131+s.k*17+s.n), 0x13)
		w := randI8Matrix(rng, s.k, s.n)
		a := randI8Codes(rng, s.m*s.k)
		mul := make([]float64, s.n)
		fbias := make([]float64, s.n)
		for j := range mul {
			mul[j] = rng.Float64() / float64(s.k)
			fbias[j] = rng.NormFloat64()
		}
		got := make([]float64, s.m*s.n)
		want := make([]float64, s.m*s.n)
		I8MatMulBiasFloat(got, a, s.m, w, mul, fbias)
		i8MatMulBiasFloatRef(want, a, s.m, w, mul, fbias)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shape %dx%dx%d: logit[%d] = %v, ref %v",
					s.m, s.k, s.n, i, got[i], want[i])
			}
		}
	}
}

// TestI8KernelWidthDeterminism runs the same fused call at worker
// widths 1 and 8 and demands identical bytes — the property that lets
// the device fleet change pool width without changing verdicts.
func TestI8KernelWidthDeterminism(t *testing.T) {
	rng := NewRand(99, 0x14)
	const m, k, n = 32, 96, 96
	w := randI8Matrix(rng, k, n)
	a := randI8Codes(rng, m*k)
	mul := make([]float64, n)
	fbias := make([]float64, n)
	for j := range mul {
		mul[j] = (0.5 + rng.Float64()) / k
		fbias[j] = rng.NormFloat64() * 4
	}
	SetMaxWorkers(1)
	d1 := make([]int8, m*n)
	s1 := I8MatMulBiasReLU(d1, a, m, w, mul, fbias, true)
	SetMaxWorkers(8)
	d8 := make([]int8, m*n)
	s8 := I8MatMulBiasReLU(d8, a, m, w, mul, fbias, true)
	SetMaxWorkers(0)
	if s1 != s8 {
		t.Fatalf("saturation count differs across widths: %d vs %d", s1, s8)
	}
	for i := range d1 {
		if d1[i] != d8[i] {
			t.Fatalf("code[%d] differs across widths: %d vs %d", i, d1[i], d8[i])
		}
	}
}

// TestQuantizeI8Roundtrip checks per-column scale selection: every
// dequantized weight must sit within half a quantization step of its
// source, and the column max must map to ±127 exactly.
func TestQuantizeI8Roundtrip(t *testing.T) {
	rng := NewRand(7, 0x15)
	w := New(40, 13)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
	}
	// One all-zero column exercises the empty-range guard.
	for i := 0; i < w.Rows; i++ {
		w.Data[i*w.Cols+5] = 0
	}
	q := QuantizeI8(w)
	for j := 0; j < w.Cols; j++ {
		var maxAbs float64
		for i := 0; i < w.Rows; i++ {
			maxAbs = math.Max(maxAbs, math.Abs(w.Data[i*w.Cols+j]))
		}
		if j == 5 {
			if q.Scales[j] != 1 {
				t.Fatalf("zero column scale = %v, want 1", q.Scales[j])
			}
			continue
		}
		if want := maxAbs / 127; math.Abs(q.Scales[j]-want) > 1e-15 {
			t.Fatalf("col %d scale = %v, want %v", j, q.Scales[j], want)
		}
		for i := 0; i < w.Rows; i++ {
			src := w.Data[i*w.Cols+j]
			back := q.at(i, j)
			if math.Abs(back-src) > q.Scales[j]/2+1e-12 {
				t.Fatalf("col %d row %d: dequant %v vs %v exceeds half-step %v",
					j, i, back, src, q.Scales[j]/2)
			}
		}
	}
}

// TestQuantizeI8VecSaturation pins the activation clamp counter.
func TestQuantizeI8VecSaturation(t *testing.T) {
	src := []float64{0, 1, -1, 2.5, -3}
	dst := make([]int8, len(src))
	sat := QuantizeI8VecTo(dst, src, 1.0/127) // maps ±1 to ±127
	if sat != 2 {
		t.Fatalf("sat = %d, want 2 (the 2.5 and -3 entries)", sat)
	}
	want := []int8{0, 127, -127, 127, -127}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
}

// TestI8KernelAllocs pins the steady-state allocation count of the
// fused kernel at zero on both the serial and parallel paths: scratch
// must come from the pooled I8Workspace bundles.
func TestI8KernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	rng := NewRand(3, 0x16)
	run := func(m, k, n int, width int) float64 {
		SetMaxWorkers(width)
		defer SetMaxWorkers(0)
		w := randI8Matrix(rng, k, n)
		a := randI8Codes(rng, m*k)
		mul := make([]float64, n)
		fbias := make([]float64, n)
		for j := range mul {
			mul[j] = 1.0 / float64(k)
		}
		dst := make([]int8, m*n)
		w.Pack()
		// Warm the workspace pool (and any worker goroutines).
		I8MatMulBiasReLU(dst, a, m, w, mul, fbias, true)
		return testing.AllocsPerRun(50, func() {
			I8MatMulBiasReLU(dst, a, m, w, mul, fbias, true)
		})
	}
	if got := run(4, 64, 64, 1); got != 0 {
		t.Fatalf("serial path: %v allocs/op, want 0", got)
	}
	// The parallel path may allocate only the ParallelFor fan-out
	// bookkeeping (goroutine closures and waitgroup) that the float
	// kernels also pay; the int8 kernels themselves must add nothing.
	// Measure that baseline with a float call of the same fan-out.
	floatBase := func() float64 {
		SetMaxWorkers(4)
		defer SetMaxWorkers(0)
		a, bm := New(64, 96), New(96, 96)
		dst := New(64, 96)
		bias := make([]float64, 96)
		mask := make([]bool, 64*96)
		MatMulBiasReLU(dst, a, bm, bias, mask)
		return testing.AllocsPerRun(50, func() {
			MatMulBiasReLU(dst, a, bm, bias, mask)
		})
	}()
	if got := run(64, 96, 96, 4); got > floatBase {
		t.Fatalf("parallel path: %v allocs/op, float fan-out baseline is %v", got, floatBase)
	}
}

// TestI8ConcurrentUse hammers one shared packed matrix from many
// goroutines (run under -race in CI): Pack must be once-only and the
// kernels must share it without writes.
func TestI8ConcurrentUse(t *testing.T) {
	rng := NewRand(17, 0x17)
	const m, k, n = 4, 64, 48
	w := randI8Matrix(rng, k, n)
	a := randI8Codes(rng, m*k)
	mul := make([]float64, n)
	fbias := make([]float64, n)
	for j := range mul {
		mul[j] = 1.0 / k
	}
	want := make([]int8, m*n)
	i8MatMulBiasReLURef(want, a, m, w, mul, fbias, true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]int8, m*n)
			for it := 0; it < 50; it++ {
				I8MatMulBiasReLU(dst, a, m, w, mul, fbias, true)
				for i := range dst {
					if dst[i] != want[i] {
						t.Errorf("concurrent run diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestI8ChunkBoundaryExact stresses the lane-overflow margin: worst-case
// codes (all +127 against all ±127) across a k just above the chunk
// size must still extract exactly.
func TestI8ChunkBoundaryExact(t *testing.T) {
	const k, n = i8ChunkK + 37, 10
	w := NewI8Matrix(k, n)
	for i := range w.Data {
		if i%2 == 0 {
			w.Data[i] = 127
		} else {
			w.Data[i] = -127
		}
	}
	a := make([]int8, k)
	for i := range a {
		a[i] = 127
	}
	got := make([]int32, n)
	want := make([]int32, n)
	i8MatMulI32(got, a, 1, w)
	i8MatMulI32Ref(want, a, 1, w)
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("worst-case col %d: %d != %d", j, got[j], want[j])
		}
	}
}

// TestI8MatrixSizeBytes pins the storage model: one byte per code plus
// one float64 scale per column.
func TestI8MatrixSizeBytes(t *testing.T) {
	q := NewI8Matrix(96, 48)
	if got, want := q.SizeBytes(), 96*48+8*48; got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
}

func TestI8ArgPanics(t *testing.T) {
	w := NewI8Matrix(4, 4)
	for name, fn := range map[string]func(){
		"badA":   func() { i8MatMulI32(make([]int32, 4), make([]int8, 3), 1, w) },
		"badDst": func() { i8MatMulI32(make([]int32, 3), make([]int8, 4), 1, w) },
		"badMul": func() {
			I8MatMulBiasReLU(make([]int8, 4), make([]int8, 4), 1, w, make([]float64, 3), make([]float64, 4), false)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestI8WorkspaceReuse(t *testing.T) {
	w1 := GetI8Workspace(100, 50)
	PutI8Workspace(w1)
	w2 := GetI8Workspace(80, 40)
	if w2 != w1 {
		// Not guaranteed by sync.Pool, but in a single-goroutine test
		// with no GC pressure the bundle should come straight back.
		t.Logf("note: workspace not reused (pool behavior)")
	}
	if cap(w2.f) < 80 || cap(w2.acc) < 40 {
		t.Fatalf("workspace capacities not grown: f=%d acc=%d", cap(w2.f), cap(w2.acc))
	}
	PutI8Workspace(w2)
	PutI8Workspace(nil) // no-op
}

func ExampleQuantizeI8() {
	w := New(2, 2)
	copy(w.Data, []float64{1.0, -0.5, 0.5, 0.25})
	q := QuantizeI8(w)
	fmt.Printf("codes=%v col0 scale*127=%.2f\n", q.Data, q.Scales[0]*127)
	// Output: codes=[127 -127 64 64] col0 scale*127=1.00
}
