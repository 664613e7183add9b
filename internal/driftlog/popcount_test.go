package driftlog

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// kernelBodies runs f once per popcountAnd body the host can run (the Go
// loop, then each vector body the host has, narrowest first) by setting
// body, restoring the start-up choice afterwards.
func kernelBodies(t testing.TB, f func(body string)) {
	t.Helper()
	host := body
	defer func() { body = host }()
	for _, k := range hostBodies() {
		body = k
		f(k.String())
	}
}

// onKernelBodies runs f as one subtest per popcountAnd body, named for it:
// the differential tests run every check under each body this way.
func onKernelBodies(t *testing.T, f func(t *testing.T)) {
	kernelBodies(t, func(body string) { t.Run(body, f) })
}

// kernelBlock is the vector body's step in words; the lengths below
// cover two steps, the four-word step and every scalar remainder.
const kernelBlock = 8

// fillDensity sets each bit of w with probability num/64.
func fillDensity(rng *rand.Rand, w []uint64, num int) {
	for i := range w {
		switch num {
		case 0:
			w[i] = 0
		case 64:
			w[i] = ^uint64(0)
		default:
			var x uint64
			for b := 0; b < 64; b++ {
				if rng.Intn(64) < num {
					x |= 1 << b
				}
			}
			w[i] = x
		}
	}
}

// popcountAndNaive is the bit-by-bit definition popcountAnd implements.
func popcountAndNaive(a, b, f []uint64) (total, flagged int) {
	for i := range a {
		for bit := 0; bit < 64; bit++ {
			m := uint64(1) << bit
			if a[i]&b[i]&m == 0 {
				continue
			}
			total++
			if i < len(f) && f[i]&m != 0 {
				flagged++
			}
		}
	}
	return total, flagged
}

// TestPopcountAndBodies checks every body against the bit-by-bit
// definition at every length up to two vector steps plus seven words,
// every start offset within a 64-byte line, densities 0, 1/64, 1/2 and
// all ones per operand, and flags that end before, at and past the
// operands.
func TestPopcountAndBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const maxLen = 2*kernelBlock + 7
	densities := []int{0, 1, 32, 64}
	a, b, f := make([]uint64, maxLen+16), make([]uint64, maxLen+16), make([]uint64, maxLen+16)
	kernelBodies(t, func(body string) {
		for _, da := range densities {
			for _, db := range densities {
				for _, df := range densities {
					fillDensity(rng, a, da)
					fillDensity(rng, b, db)
					fillDensity(rng, f, df)
					for n := 0; n <= maxLen; n++ {
						for off := 0; off < 8; off++ {
							for _, fl := range []int{n, 0, n / 2, max(n-1, 0), n + 3} {
								as, bs, fs := a[off:off+n], b[off:off+n+1], f[off:off+fl]
								gt, gf := popcountAnd(as, bs, fs)
								wt, wf := popcountAndNaive(as, bs, fs)
								if gt != wt || gf != wf {
									t.Fatalf("%s: density a=%d b=%d f=%d/64, len %d, offset %d, flags %d: got (%d, %d), want (%d, %d)",
										body, da, db, df, n, off, fl, gt, gf, wt, wf)
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestPopcountAndLong checks the bodies agree on long random operands,
// where the vector body's 64-bit lane sums carry across many steps.
func TestPopcountAndLong(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{196, 1000, 4099} {
		a, b, f := make([]uint64, n), make([]uint64, n), make([]uint64, n)
		for i := range a {
			a[i], b[i], f[i] = rng.Uint64()|rng.Uint64(), rng.Uint64()|rng.Uint64(), rng.Uint64()&rng.Uint64()
		}
		wt, wf := popcountAndNaive(a, b, f)
		kernelBodies(t, func(body string) {
			if gt, gf := popcountAnd(a, b, f); gt != wt || gf != wf {
				t.Fatalf("%s: %d words: got (%d, %d), want (%d, %d)", body, n, gt, gf, wt, wf)
			}
		})
	}
}

// BenchmarkPopcountAnd times each body over one shard's share of a
// 200k-row window (196 words) and over a whole 1M-row shard's bitmap.
func BenchmarkPopcountAnd(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{196, 1024} {
		x, y, f := make([]uint64, n), make([]uint64, n), make([]uint64, n)
		for i := range x {
			x[i], y[i], f[i] = rng.Uint64(), rng.Uint64(), rng.Uint64()
		}
		kernelBodies(b, func(body string) {
			b.Run(fmt.Sprintf("%s/%d", body, n), func(b *testing.B) {
				b.SetBytes(int64(24 * n))
				var sink int
				for i := 0; i < b.N; i++ {
					t, fl := popcountAnd(x, y, f)
					sink += t + fl
				}
				_ = sink
			})
		})
	}
}

// unequalStore is a log whose bitmaps end at different words: weather
// "early" stops appearing at 40% of the rows and "late" starts at 70%, the
// drift flags stop at 30% (the stored drift bitmap ends there), and the
// row count leaves every shard a partial tail word.
func unequalStore() *Store {
	const n = 40_000 + 37
	r := rand.New(rand.NewSource(11))
	base := time.Unix(0, 0).UTC()
	entries := make([]Entry, n)
	for g := range entries {
		weather := "mid"
		switch {
		case g < n*4/10:
			weather = "early"
		case g >= n*7/10:
			weather = "late"
		}
		entries[g] = Entry{
			Time:     base.Add(time.Duration(g) * time.Second),
			Drift:    g < n*3/10 && r.Intn(3) == 0,
			SampleID: -1,
			Attrs: map[string]string{
				AttrWeather:  weather,
				AttrLocation: fmt.Sprintf("city_%d", r.Intn(5)),
				AttrDevice:   fmt.Sprintf("dev_%d", r.Intn(40)),
			},
		}
	}
	s := NewStore()
	for lo := 0; lo < n; lo += 1000 {
		s.AppendBatch(entries[lo:min(n, lo+1000)])
	}
	return s
}

// TestKernelOperandsOfUnequalLength checks every aggregate against the scan
// reference, under each popcountAnd body, where the kernel's operands end
// at different words: value bitmaps that end before the window does or
// start after it, a drift bitmap that ends before both, windows whose
// range holds the partial tail word and windows that stop short of it, and
// conjunctions of one to three bitmaps.
func TestKernelOperandsOfUnequalLength(t *testing.T) {
	s := unequalStore()
	base := time.Unix(0, 0).UTC()
	at := func(frac float64) time.Time { return base.Add(time.Duration(frac*40_037) * time.Second) }
	windows := []struct {
		name     string
		from, to time.Time
	}{
		{"all", time.Time{}, time.Time{}},
		{"suffix", at(0.2), time.Time{}},
		{"drift-free-suffix", at(0.5), time.Time{}},
		{"middle", at(0.25), at(0.75)},
		{"newest-1/40", at(0.975), time.Time{}},
		{"before-tail", at(0.1), at(0.9)},
	}
	conds := [][]Cond{
		nil,
		{{AttrWeather, "early"}},
		{{AttrWeather, "late"}},
		{{AttrWeather, "early"}, {AttrLocation, "city_1"}},
		{{AttrLocation, "city_2"}, {AttrWeather, "late"}},
		{{AttrLocation, "city_3"}, {AttrDevice, "dev_7"}, {AttrWeather, "mid"}},
	}
	kernelBodies(t, func(body string) {
		for _, w := range windows {
			t.Run(body+"/"+w.name, func(t *testing.T) {
				v := s.Window(w.from, w.to)
				requireViewMatchesScan(t, v, conds)
				prev := v.ShardRows()
				for i := range prev {
					prev[i] /= 2
				}
				_, to := v.Bounds()
				d, err := v.Since(prev, min(to, at(0.8).UnixNano()))
				if err != nil {
					t.Fatal(err)
				}
				requireViewMatchesScan(t, d, conds)
			})
		}
	})
}
