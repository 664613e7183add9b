package tensor

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// Kernel micro-benchmarks: blocked dispatch vs the reference loops at
// the shapes the nn hot path actually runs (batch×hidden products).
// `make bench-kernels` runs these with -benchmem and records the output
// in BENCH_kernels.json; the ≥1.5× large-shape speedup of the blocked
// kernels over the reference loops is part of the PR acceptance
// criteria.

func benchMatrices(m, k, n int) (a, b, dst *Matrix) {
	rng := rand.New(rand.NewPCG(0xBE7C4, 1))
	a = New(m, k)
	b = New(k, n)
	dst = New(m, n)
	for _, mat := range []*Matrix{a, b} {
		for i := range mat.Data {
			mat.Data[i] = rng.NormFloat64()
		}
	}
	return
}

var benchSizes = []int{64, 128, 256}

// benchOrientation runs one product at each size three ways: the blocked
// kernel on the host's row body ("blocked"), the blocked kernel on the Go
// row body ("go", present only where the host runs the AVX body, so the
// pair reads as the vector body's gain), and the reference loop ("ref").
func benchOrientation(b *testing.B, kernel, ref func(dst, a, b *Matrix)) {
	for _, s := range benchSizes {
		a, bm, dst := benchMatrices(s, s, s)
		run := func(name string, f func(dst, a, b *Matrix)) {
			b.Run(fmt.Sprintf("%s/%d", name, s), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(8 * s * s * s))
				for i := 0; i < b.N; i++ {
					f(dst, a, bm)
				}
			})
		}
		run("blocked", kernel)
		if useAVX {
			useAVX = false
			run("go", kernel)
			useAVX = true
		}
		run("ref", ref)
	}
}

func BenchmarkMatMul(b *testing.B) { benchOrientation(b, MatMul, matMulRef) }

func BenchmarkMatMulATB(b *testing.B) { benchOrientation(b, MatMulATB, matMulATBRef) }

// BenchmarkMatMulBiasReLU compares the fused dense-forward kernel
// against the unfused MatMul + addRowVector + clamp sequence it
// replaces.
func BenchmarkMatMulBiasReLU(b *testing.B) {
	const m, k, n = 64, 96, 96
	a, bm, dst := benchMatrices(m, k, n)
	bias := make([]float64, n)
	mask := make([]bool, m*n)
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MatMulBiasReLU(dst, a, bm, bias, mask)
		}
	})
	b.Run("unfused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MatMul(dst, a, bm)
			dst.addRowVector(bias)
			for j, v := range dst.Data {
				if v > 0 {
					mask[j] = true
				} else {
					dst.Data[j] = 0
					mask[j] = false
				}
			}
		}
	})
}

// BenchmarkWorkspaceGetPut measures the steady-state arena round trip
// (expected: zero allocations, dominated by the Get-side zeroing).
func BenchmarkWorkspaceGetPut(b *testing.B) {
	PutMatrix(GetMatrix(64, 64)) // warm the class
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := GetMatrix(64, 64)
		PutMatrix(m)
	}
}
