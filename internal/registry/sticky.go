// Sticky device→version assignment: the consistent-hash primitive the
// staged-rollout control plane (cloud.Rollout) is built on.
//
// A rollout must decide, for every device in a million-device fleet,
// whether that device serves the candidate version or the baseline —
// and the decision has to be *sticky*: the same device keeps the same
// verdict across service restarts, across any number of control-plane
// replicas, and across any partitioning of the fleet over worker pools.
// Storing a fleet-sized assignment table would defeat all three, so the
// assignment is a pure function instead: each device ID hashes to a
// stable point in [0,1), and a ramp at p% owns exactly the devices
// whose point falls below p/100. Ramping from p% to q% then reassigns
// only the (q−p)% of devices in [p/100, q/100) — nobody already on the
// candidate ever flips back mid-ramp, which is what makes percentage
// ramps monotone.
package registry

// StickyFraction maps a device ID to a stable point in [0,1). The salt
// decorrelates independent rollouts: two concurrent experiments with
// different salts sample independent device subsets, while the same
// salt always reproduces the same fleet partition. The function is
// pure — no state, no clock — so the assignment survives restarts and
// is identical no matter which node or worker evaluates it.
func StickyFraction(deviceID, salt string) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(salt); i++ {
		h = (h ^ uint64(salt[i])) * prime64
	}
	// NUL separator so ("ab","c") and ("a","bc") hash apart.
	h = (h ^ 0) * prime64
	for i := 0; i < len(deviceID); i++ {
		h = (h ^ uint64(deviceID[i])) * prime64
	}
	// FNV's low bits are weak for short keys; finish with a splitmix-style
	// avalanche before truncating to 53 bits of mantissa.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return float64(h>>11) / (1 << 53)
}

// InRamp reports whether a device whose sticky fraction is frac (see
// StickyFraction) is inside a percentage ramp: true iff frac falls below
// percent/100. As frac lies in [0,1), percent ≤ 0 admits no device and
// percent ≥ 100 admits every device. Because the fraction is fixed per
// (device, salt), the admitted set at q% is a strict superset of the
// set at p% for p < q.
func InRamp(frac, percent float64) bool { return frac*100 < percent }
