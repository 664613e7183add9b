package tensor

// useAVX selects quadRow's vector body: the CPU reports AVX and the OS
// saves the YMM register state across context switches.
var useAVX = hasAVX()

// avx2 adds AVX2 and POPCNT to useAVX's condition: what the drift log's
// bitset kernel needs (HasAVX2).
var avx2 = useAVX && hasAVX2()

// avx512Popcnt adds AVX-512F, VPOPCNTQ and the OS-saved opmask and ZMM state
// to avx2's condition: the drift log's 512-bit kernel (HasAVX512Popcnt).
var avx512Popcnt = avx2 && hasAVX512Popcnt()

func hasAVX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6 // XMM and YMM state enabled
}

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	_, ebx, _, _ := cpuid(7, 0)
	const popcntBit, avx2Bit = 1 << 23, 1 << 5
	return ecx&popcntBit != 0 && ebx&avx2Bit != 0
}

func hasAVX512Popcnt() bool {
	_, ebx, ecx, _ := cpuid(7, 0)
	const avx512f, vpopcntdq = 1 << 16, 1 << 14
	if ebx&avx512f == 0 || ecx&vpopcntdq == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&0xe6 == 0xe6 // XMM, YMM, opmask, ZMM_Hi256 and Hi16_ZMM state enabled
}

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

// quadRowAVX is quadRow's vector body over n elements: d and b point at
// the destination row and at four source rows of n elements laid out
// back to back.
//
//go:noescape
func quadRowAVX(d, b *float64, n int, a0, a1, a2, a3 float64)
