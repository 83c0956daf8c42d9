package tensor

// cpuKernel picks the widest micro-kernel the CPU has and the OS saves
// the registers of across context switches (CPUID leaves 1 and 7,
// XCR0): AVX-512F with opmask and ZMM state, else AVX2 with YMM state,
// else Go.
func cpuKernel() microKernelID {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return kernelGo
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return kernelGo
	}
	xcr0, _ := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	const avx2, avx512f = 1 << 5, 1 << 16
	const ymmState, zmmState = 0x06, 0xe6 // XMM|YMM; also opmask, ZMM_Hi256, Hi16_ZMM
	switch {
	case ebx&avx512f != 0 && xcr0&zmmState == zmmState:
		return kernelAVX512
	case ebx&avx2 != 0 && xcr0&ymmState == ymmState:
		return kernelAVX2
	}
	return kernelGo
}

// microKernelAVX2 is a 4×16 micro-kernel in AVX2 assembly: eight YMM
// accumulators, VMULPS then VADDPS per term, never FMA.
//
//go:noescape
func microKernelAVX2(k int, a []float32, ars, aps int, b []float32, bs int, c []float32, cs int)

// microKernelAVX512 is microKernel in AVX-512 assembly: eight ZMM
// accumulators, one per row, VMULPS then VADDPS per term, never FMA.
//
//go:noescape
func microKernelAVX512(k int, a []float32, ars, aps int, b []float32, bs int, c []float32, cs int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
