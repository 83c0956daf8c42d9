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

// func microKernelAVX512(k int, a []float32, ars, aps int, b []float32, bs int, c []float32, cs int)
//
// Z0–Z7 hold the 8×16 C tile, one vector a row. Per p: load B row p
// into Z8, broadcast each A element, multiply, then add onto the
// accumulator — the same two roundings as the Go kernel. SI walks A
// rows 0–3 and R13 rows 4–7; DX and AX do the same for C.
TEXT ·microKernelAVX512(SB), NOSPLIT, $0-112
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
	LEAQ (R8)(R8*2), BX    // A row 3
	LEAQ (SI)(R8*4), R13   // A row 4
	LEAQ (R11)(R11*2), R12 // C row 3
	LEAQ (DX)(R11*4), AX   // C row 4

	VMOVUPS (DX), Z0
	VMOVUPS (DX)(R11*1), Z1
	VMOVUPS (DX)(R11*2), Z2
	VMOVUPS (DX)(R12*1), Z3
	VMOVUPS (AX), Z4
	VMOVUPS (AX)(R11*1), Z5
	VMOVUPS (AX)(R11*2), Z6
	VMOVUPS (AX)(R12*1), Z7

	TESTQ CX, CX
	JEQ   store512

loop512:
	VMOVUPS      (DI), Z8
	VBROADCASTSS (SI), Z9
	VBROADCASTSS (SI)(R8*1), Z10
	VBROADCASTSS (SI)(R8*2), Z11
	VBROADCASTSS (SI)(BX*1), Z12
	VBROADCASTSS (R13), Z13
	VBROADCASTSS (R13)(R8*1), Z14
	VBROADCASTSS (R13)(R8*2), Z15
	VBROADCASTSS (R13)(BX*1), Z16
	VMULPS       Z9, Z8, Z9
	VMULPS       Z10, Z8, Z10
	VMULPS       Z11, Z8, Z11
	VMULPS       Z12, Z8, Z12
	VMULPS       Z13, Z8, Z13
	VMULPS       Z14, Z8, Z14
	VMULPS       Z15, Z8, Z15
	VMULPS       Z16, Z8, Z16
	VADDPS       Z9, Z0, Z0
	VADDPS       Z10, Z1, Z1
	VADDPS       Z11, Z2, Z2
	VADDPS       Z12, Z3, Z3
	VADDPS       Z13, Z4, Z4
	VADDPS       Z14, Z5, Z5
	VADDPS       Z15, Z6, Z6
	VADDPS       Z16, Z7, Z7
	ADDQ         R9, SI
	ADDQ         R9, R13
	ADDQ         R10, DI
	DECQ         CX
	JNE          loop512

store512:
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, (DX)(R11*1)
	VMOVUPS Z2, (DX)(R11*2)
	VMOVUPS Z3, (DX)(R12*1)
	VMOVUPS Z4, (AX)
	VMOVUPS Z5, (AX)(R11*1)
	VMOVUPS Z6, (AX)(R11*2)
	VMOVUPS Z7, (AX)(R12*1)
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
