package registry

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"nazar/internal/tensor"
)

// genDeviceIDs builds n pseudo-random device IDs in the fleet's naming
// styles (mixed lengths and prefixes, like a real heterogeneous fleet).
func genDeviceIDs(n int, seed uint64) []string {
	rng := tensor.NewRand(seed, 0x51D)
	prefixes := []string{"dev", "cam", "phone", "edge-node", "d"}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%d-%x", prefixes[rng.IntN(len(prefixes))], i, rng.Uint64())
	}
	return ids
}

// TestStickyFractionPure pins the function's purity: the same (device,
// salt) pair maps to the same point on every evaluation — the property
// that makes assignment survive restarts without any stored table.
func TestStickyFractionPure(t *testing.T) {
	for _, id := range genDeviceIDs(1000, 1) {
		a := StickyFraction(id, "v2")
		b := StickyFraction(id, "v2")
		if a != b {
			t.Fatalf("StickyFraction(%q) not stable: %v vs %v", id, a, b)
		}
		if a < 0 || a >= 1 {
			t.Fatalf("StickyFraction(%q) = %v out of [0,1)", id, a)
		}
	}
	// The salt decorrelates: two rollouts with different salts must not
	// sample the same device subset.
	same := 0
	ids := genDeviceIDs(5000, 2)
	for _, id := range ids {
		inA := InRamp(StickyFraction(id, "saltA"), 10)
		inB := InRamp(StickyFraction(id, "saltB"), 10)
		if inA && inB {
			same++
		}
	}
	// Independent 10% subsets overlap in ~1% of devices; 3% means the
	// salts are correlated.
	if float64(same)/float64(len(ids)) > 0.03 {
		t.Fatalf("salts correlated: %d/%d devices in both 10%% ramps", same, len(ids))
	}
}

// TestStickySeparatorDistinct guards the salt/device framing: moving a
// byte across the boundary must change the hash input.
func TestStickySeparatorDistinct(t *testing.T) {
	if StickyFraction("bc", "a") == StickyFraction("c", "ab") {
		t.Fatal("salt/device boundary not separated")
	}
}

// TestStickyRampReassignsOnlyDelta is the core ramp property: raising
// the ramp from p% to q% must (a) never flip a device off the
// candidate, and (b) newly assign only ~(q−p)% of the fleet.
func TestStickyRampReassignsOnlyDelta(t *testing.T) {
	const n = 50000
	ids := genDeviceIDs(n, 3)
	ramps := []struct{ p, q float64 }{
		{1, 5}, {5, 25}, {10, 25}, {25, 50}, {50, 100}, {0, 1},
	}
	for _, r := range ramps {
		var atP, atQ, flippedOff, newly int
		for _, id := range ids {
			inP := InRamp(StickyFraction(id, "cand"), r.p)
			inQ := InRamp(StickyFraction(id, "cand"), r.q)
			if inP {
				atP++
			}
			if inQ {
				atQ++
			}
			if inP && !inQ {
				flippedOff++
			}
			if !inP && inQ {
				newly++
			}
		}
		if flippedOff != 0 {
			t.Fatalf("ramp %v%%→%v%%: %d devices flipped OFF the candidate", r.p, r.q, flippedOff)
		}
		want := (r.q - r.p) / 100
		got := float64(newly) / n
		// Binomial std at n=50000 is ≤0.22%; 1% tolerance is ~5σ.
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("ramp %v%%→%v%%: reassigned %.2f%% of fleet, want ~%.2f%%",
				r.p, r.q, 100*got, 100*want)
		}
		// Occupancy at each rung matches the percentage.
		if math.Abs(float64(atP)/n-r.p/100) > 0.01 || math.Abs(float64(atQ)/n-r.q/100) > 0.01 {
			t.Fatalf("ramp occupancy off: %d at %v%%, %d at %v%% of %d", atP, r.p, atQ, r.q, n)
		}
	}
}

// TestStickyAcrossPoolWidths partitions the fleet over 1 and 8 workers
// and requires bit-identical assignments: the hash must not depend on
// evaluation order, sharding, or concurrency.
func TestStickyAcrossPoolWidths(t *testing.T) {
	const n = 20000
	ids := genDeviceIDs(n, 4)
	assign := func(workers int) []bool {
		out := make([]bool, n)
		var wg sync.WaitGroup
		per := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*per, min((w+1)*per, n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					out[i] = InRamp(StickyFraction(ids[i], "cand"), 25)
				}
			}()
		}
		wg.Wait()
		return out
	}
	serial := assign(1)
	parallel := assign(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("device %q: assignment differs across pool widths 1/8", ids[i])
		}
	}
}
