package tensor

// useAVX selects quadRow's vector body: the CPU reports AVX and the OS
// saves the YMM register state across context switches.
var useAVX = hasAVX()

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
