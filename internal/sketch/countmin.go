// Package sketch provides bounded-memory streaming summaries used by the
// drift-log's tiered index for high-cardinality attributes: a Count-Min
// sketch for approximate support counting and a Space-Saving tracker for
// heavy-hitter enumeration.
//
// Both structures use deterministic seeded hashing (splitmix64-style
// finalizers over a caller-supplied seed) so that results are byte-identical
// across runs, across worker-pool widths, and across insertion orders of
// commuting operations. The Count-Min sketch uses plain (non-conservative)
// increments so adds commute: feeding the same multiset of keys in any order
// yields the same counter array, which is what makes sharded ingest and
// tier-up replay deterministic.
package sketch

import (
	"math"
	"sync/atomic"
)

// CountMin is a Count-Min sketch over string keys that tracks two counters
// per cell: a total-occurrence count and a drifted-occurrence count. The
// paired layout means a single Estimate returns both the support and the
// drift support for a key with one pass over the rows.
//
// Counters are uint32 and incremented atomically, so concurrent Add calls
// from different shards are safe without external locking. A single cell
// saturates the uint32 at ~4.2 billion increments; the drift log caps well
// below that (the store itself would exhaust memory first).
//
// Estimates are one-sided: Estimate(key) >= true count, always, with
// Pr[Estimate - true > εN] <= e^-depth where ε = e/width and N is the total
// number of increments.
type CountMin struct {
	width uint32
	depth uint32
	seed  uint64
	// rows holds depth rows of width cells; each cell is a (total, drift)
	// pair stored as two consecutive uint32s.
	rows []uint32
}

// Estimate is a one-sided approximate count returned by CountMin.Estimate:
// Total >= true total and Drift >= true drift for the queried key.
type Estimate struct {
	Total uint32
	Drift uint32
}

// NewCountMin allocates a sketch with the given geometry. Width is rounded
// up to at least 2 and depth clamped to [1, 8]. The seed fixes the hash
// family; two sketches built with the same (width, depth, seed) are
// mergeable and order-independent.
func NewCountMin(width, depth int, seed uint64) *CountMin {
	if width < 2 {
		width = 2
	}
	if depth < 1 {
		depth = 1
	}
	if depth > 8 {
		depth = 8
	}
	return &CountMin{
		width: uint32(width),
		depth: uint32(depth),
		seed:  seed,
		rows:  make([]uint32, 2*width*depth),
	}
}

// Width returns the per-row cell count.
func (c *CountMin) Width() int { return int(c.width) }

// Depth returns the number of hash rows.
func (c *CountMin) Depth() int { return int(c.depth) }

// Bytes returns the heap footprint of the counter array.
func (c *CountMin) Bytes() int { return len(c.rows) * 4 }

// hashPair derives the two base hashes for Kirsch-Mitzenmacher double
// hashing: row i probes index (h1 + i*h2) mod width. h2 is forced odd so
// the probe sequence cycles through all residues for power-of-two widths
// and never degenerates to a constant.
func (c *CountMin) hashPair(key string) (uint64, uint64) {
	h := c.seed
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 0x100000001b3 // FNV-1a style mix with a 64-bit prime
	}
	h1 := mix64(h)
	h2 := mix64(h ^ 0x9e3779b97f4a7c15)
	return h1, h2 | 1
}

// Add records one occurrence of key; drifted additionally bumps the drift
// counter. Safe for concurrent use.
func (c *CountMin) Add(key string, drifted bool) {
	if drifted {
		c.AddCounts(key, 1, 1)
	} else {
		c.AddCounts(key, 1, 0)
	}
}

// AddCounts records total occurrences of key, drift of them drifted, with
// one hash of the key — a batch's multiplicity of one distinct key. Plain
// adds are linear, so the cells equal those of total single Adds in any
// order. Safe for concurrent use.
func (c *CountMin) AddCounts(key string, total, drift uint32) {
	if total == 0 {
		return
	}
	h1, h2 := c.hashPair(key)
	w := uint64(c.width)
	for i := uint32(0); i < c.depth; i++ {
		idx := (h1 + uint64(i)*h2) % w
		cell := (uint64(i)*w + idx) * 2
		atomic.AddUint32(&c.rows[cell], total)
		if drift != 0 {
			atomic.AddUint32(&c.rows[cell+1], drift)
		}
	}
}

// Estimate returns the one-sided (Total, Drift) estimate for key: the
// minimum over the depth probed cells, with Drift clamped to Total (the
// clamp preserves the one-sided guarantee because true drift <= true
// total <= estimated total).
func (c *CountMin) Estimate(key string) Estimate {
	h1, h2 := c.hashPair(key)
	w := uint64(c.width)
	est := Estimate{Total: math.MaxUint32, Drift: math.MaxUint32}
	for i := uint32(0); i < c.depth; i++ {
		idx := (h1 + uint64(i)*h2) % w
		cell := (uint64(i)*w + idx) * 2
		t := atomic.LoadUint32(&c.rows[cell])
		d := atomic.LoadUint32(&c.rows[cell+1])
		if t < est.Total {
			est.Total = t
		}
		if d < est.Drift {
			est.Drift = d
		}
	}
	if est.Drift > est.Total {
		est.Drift = est.Total
	}
	return est
}

// Merge adds other's counters into c. Both sketches must share geometry
// and seed; Merge panics otherwise. Because increments are plain adds,
// Merge(a, b) is equivalent to replaying both input streams into one
// sketch in any order.
func (c *CountMin) Merge(other *CountMin) {
	if other == nil {
		return
	}
	if c.width != other.width || c.depth != other.depth || c.seed != other.seed {
		panic("sketch: CountMin.Merge geometry/seed mismatch")
	}
	for i := range c.rows {
		v := atomic.LoadUint32(&other.rows[i])
		if v != 0 {
			atomic.AddUint32(&c.rows[i], v)
		}
	}
}

// Equal reports whether c and other share geometry and seed and hold the
// same value in every cell.
func (c *CountMin) Equal(other *CountMin) bool {
	if c.width != other.width || c.depth != other.depth || c.seed != other.seed {
		return false
	}
	for i := range c.rows {
		if atomic.LoadUint32(&c.rows[i]) != atomic.LoadUint32(&other.rows[i]) {
			return false
		}
	}
	return true
}

// ErrBound returns the analytic additive error bound for a sketch of this
// width after n total increments: with probability >= 1 - e^-depth,
// Estimate - true <= ErrBound(n). This is the ceil(e*n/width) bound for
// the standard Count-Min analysis.
func (c *CountMin) ErrBound(n uint64) uint64 {
	return ErrBound(int(c.width), n)
}

// ErrBound is the analytic Count-Min additive error ceil(e*n/width) for a
// sketch of the given width after n increments.
func ErrBound(width int, n uint64) uint64 {
	if width < 2 {
		width = 2
	}
	return uint64(math.Ceil(math.E * float64(n) / float64(width)))
}

// mix64 is the splitmix64 finalizer: a cheap bijective mixer whose output
// bits are all well distributed functions of the input.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
