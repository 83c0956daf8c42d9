#include "textflag.h"

// func microKernelAVX2(k int, a []float32, ars, aps int, b []float32, bs int, c []float32, cs int)
//
// Y0–Y7 hold the 4×16 C tile, two vectors a row. Per p: load B row p
// into Y8/Y9, broadcast each A element, multiply, then add onto the
// accumulator — the same two roundings as the Go kernel.
TEXT ·microKernelAVX2(SB), NOSPLIT, $0-112
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), SI
	MOVQ ars+32(FP), R8
	MOVQ aps+40(FP), R9
	MOVQ b_base+48(FP), DI
	MOVQ bs+72(FP), R10
	MOVQ c_base+80(FP), DX
	MOVQ cs+104(FP), R11
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ (R8)(R8*2), BX   // A row 3
	LEAQ (R11)(R11*2), R12 // C row 3

	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS (DX)(R11*1), Y2
	VMOVUPS 32(DX)(R11*1), Y3
	VMOVUPS (DX)(R11*2), Y4
	VMOVUPS 32(DX)(R11*2), Y5
	VMOVUPS (DX)(R12*1), Y6
	VMOVUPS 32(DX)(R12*1), Y7

	TESTQ CX, CX
	JEQ   store

loop:
	VMOVUPS      (DI), Y8
	VMOVUPS      32(DI), Y9
	VBROADCASTSS (SI), Y10
	VMULPS       Y10, Y8, Y12
	VMULPS       Y10, Y9, Y13
	VADDPS       Y12, Y0, Y0
	VADDPS       Y13, Y1, Y1
	VBROADCASTSS (SI)(R8*1), Y11
	VMULPS       Y11, Y8, Y14
	VMULPS       Y11, Y9, Y15
	VADDPS       Y14, Y2, Y2
	VADDPS       Y15, Y3, Y3
	VBROADCASTSS (SI)(R8*2), Y10
	VMULPS       Y10, Y8, Y12
	VMULPS       Y10, Y9, Y13
	VADDPS       Y12, Y4, Y4
	VADDPS       Y13, Y5, Y5
	VBROADCASTSS (SI)(BX*1), Y11
	VMULPS       Y11, Y8, Y14
	VMULPS       Y11, Y9, Y15
	VADDPS       Y14, Y6, Y6
	VADDPS       Y15, Y7, Y7
	ADDQ         R9, SI
	ADDQ         R10, DI
	DECQ         CX
	JNE          loop

store:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, (DX)(R11*1)
	VMOVUPS Y3, 32(DX)(R11*1)
	VMOVUPS Y4, (DX)(R11*2)
	VMOVUPS Y5, 32(DX)(R11*2)
	VMOVUPS Y6, (DX)(R12*1)
	VMOVUPS Y7, 32(DX)(R12*1)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
