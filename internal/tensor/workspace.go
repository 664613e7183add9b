package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Workspace support: a process-wide arena of recyclable scratch matrices
// built on size-classed sync.Pools. The steady-state compute path
// (layer forward/backward scratch, adaptation batches, detector
// perturbation buffers) turns over identically-shaped matrices at high
// frequency; the arena makes those acquisitions allocation-free after
// warm-up instead of GC churn.
//
// Aliasing rules (also in DESIGN.md):
//
//   - A matrix obtained from GetMatrix/Workspace.Get is exclusively
//     owned by the caller until it is returned with PutMatrix/Release.
//   - Never return a matrix that other code may still reference (layer
//     outputs handed to callers, cached activations). When in doubt,
//     don't Put: an un-returned matrix is merely garbage, a returned
//     live one is a data race.
//   - Returned matrices are not zeroed on Put; GetMatrix zeroes before
//     handing out, so holders may not rely on contents after Put.

// matPoolBuckets is the number of power-of-two size classes. Bucket b
// holds backing slices with capacity exactly 1<<b; the largest class
// covers 2^25 floats (256 MiB), beyond which allocations fall through to
// the garbage collector.
const matPoolBuckets = 26

var matPools [matPoolBuckets]sync.Pool

// Workspace acquisition statistics (atomic; read by obs gauges).
var (
	wsGets     atomic.Int64
	wsHits     atomic.Int64
	wsPuts     atomic.Int64
	wsDiscards atomic.Int64
)

// WorkspaceStats is a snapshot of arena activity since process start.
type WorkspaceStats struct {
	// Gets counts matrices handed out.
	Gets int64
	// Hits counts Gets satisfied by a recycled matrix (the remainder
	// allocated fresh).
	Hits int64
	// Puts counts matrices returned to the arena.
	Puts int64
	// Discards counts returned matrices dropped because their backing
	// capacity did not match a size class (foreign matrices).
	Discards int64
}

// ReadWorkspaceStats returns the current arena counters.
func ReadWorkspaceStats() WorkspaceStats {
	return WorkspaceStats{
		Gets:     wsGets.Load(),
		Hits:     wsHits.Load(),
		Puts:     wsPuts.Load(),
		Discards: wsDiscards.Load(),
	}
}

// sizeClass returns the bucket index whose slices hold at least n
// floats, and the capacity of that class. n above the largest class
// returns (-1, n): unpooled.
func sizeClass(n int) (int, int) {
	if n <= 0 {
		return 0, 1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b >= matPoolBuckets {
		return -1, n
	}
	return b, 1 << b
}

// GetMatrix returns a zeroed rows×cols matrix from the arena,
// allocating only when no recycled matrix of a sufficient size class is
// available. Return it with PutMatrix when done. Safe for concurrent
// use.
func GetMatrix(rows, cols int) *Matrix {
	wsGets.Add(1)
	n := rows * cols
	b, capacity := sizeClass(n)
	if b >= 0 {
		if v := matPools[b].Get(); v != nil {
			m := v.(*Matrix)
			if cap(m.Data) >= n {
				wsHits.Add(1)
				m.Data = m.Data[:n]
				m.Rows, m.Cols = rows, cols
				m.Zero()
				return m
			}
			// A foreign undersized slice slipped into the class;
			// drop it and allocate.
			wsDiscards.Add(1)
		}
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, n, capacity)}
}

// PutMatrix returns m to the arena for reuse. m must not be used (or
// Put again) afterwards; passing nil is a no-op. The contents are not
// cleared — GetMatrix zeroes on the way out.
func PutMatrix(m *Matrix) {
	if m == nil || cap(m.Data) == 0 {
		return
	}
	wsPuts.Add(1)
	b := bits.Len(uint(cap(m.Data) - 1))
	if b >= matPoolBuckets || 1<<b != cap(m.Data) {
		// Only pool class-sized backings so Get's capacity guarantee
		// stays cheap to uphold.
		wsDiscards.Add(1)
		return
	}
	matPools[b].Put(m)
}

// I8Workspace is the int8 kernels' scratch bundle: the float64 widening
// and lane-accumulator rows plus the int32 accumulator row one
// activation row needs. Pooling the bundle as a single pointer keeps
// kernel calls allocation-free in steady state (sync.Pool of slice
// values would box a header per Put); acquisitions are counted in the
// same arena stats as GetMatrix.
type I8Workspace struct {
	f   []float64 // widening + lanes, grown to k+np
	acc []int32   // int32 accumulator row, grown to n
}

var i8WorkspacePool sync.Pool

// GetI8Workspace returns a scratch bundle whose float buffer holds at
// least nf float64s and whose accumulator holds at least nacc int32s.
// Return it with PutI8Workspace. Safe for concurrent use; contents are
// unspecified (kernels overwrite before reading).
func GetI8Workspace(nf, nacc int) *I8Workspace {
	wsGets.Add(1)
	w, _ := i8WorkspacePool.Get().(*I8Workspace)
	if w == nil {
		w = &I8Workspace{}
	} else {
		wsHits.Add(1)
	}
	if cap(w.f) < nf {
		_, c := sizeClass(nf)
		w.f = make([]float64, c)
	}
	if cap(w.acc) < nacc {
		_, c := sizeClass(nacc)
		w.acc = make([]int32, c)
	}
	return w
}

// PutI8Workspace returns w to the arena. w must not be used afterwards;
// nil is a no-op.
func PutI8Workspace(w *I8Workspace) {
	if w == nil {
		return
	}
	wsPuts.Add(1)
	i8WorkspacePool.Put(w)
}
